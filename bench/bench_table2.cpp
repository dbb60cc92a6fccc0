// bench_table2: regenerates Table 2 of the paper — the number of reversible
// circuits with quantum cost k for k = 0..7 (|G[k]|) and the corresponding
// counts with free NOT gates (|S8[k]| = 8 |G[k]|, Theorem 2).
//
// The paper (GAP on an 850 MHz Pentium III, cb = 7 bounded by memory)
// reports: |G[k]| = 1, 6, 30, 52, 84, 156, 398, 540.
//
// Exhaustive enumeration reproduces every entry except k = 2 and k = 3,
// where the correct counts are 24 and 51; the paper's 30 equals |pre_G[2]|
// before the G[1] subtraction (the six V*V = CNOT duplicates). Both values
// are printed below. See EXPERIMENTS.md for the hand proof.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "common/metrics.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "synth/fmcf.h"

namespace {

using namespace qsyn;

void regenerate_table2() {
  bench::section("Table 2: number of circuits with cost k (cb = 7)");
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);

  const std::uint64_t total_start = metrics::now_ns();
  synth::ClosureConfig options;
  options.track_witnesses = false;  // pure counting
  synth::FmcfEnumerator enumerator(library, options);
  std::printf("  sweep threads: %zu (QSYN_THREADS overrides)\n",
              enumerator.threads());
  enumerator.run_to(7);

  const long long paper_g[8] = {1, 6, 30, 52, 84, 156, 398, 540};
  std::printf(
      "  k | paper |G[k]| | measured |G[k]| | pre_G[k] | paper |S8[k]| | "
      "measured |S8[k]| | |B[k]|   | level secs\n");
  std::printf("  %s\n", std::string(104, '-').c_str());
  std::printf("  0 | %13lld | %15d | %8s | %14lld | %17d | %-8s | %s\n",
              paper_g[0], 1, "-", 8LL * paper_g[0], 8, "1", "-");
  for (unsigned k = 1; k <= 7; ++k) {
    const auto& s = enumerator.stats()[k - 1];
    std::printf(
        "  %u | %13lld | %15zu | %8zu | %14lld | %17zu | %-8zu | %.3f\n", k,
        paper_g[k], s.g_new, s.pre_g, 8 * paper_g[k], 8 * s.g_new, s.frontier,
        s.seconds);
  }
  std::printf(
      "  total wall time: %.3f s on one modern core "
      "(paper: minutes-scale GAP runs on a P-III)\n",
      metrics::seconds_since(total_start));
  std::printf(
      "  note: k=2,3 differ from the paper; 30 = pre_G[2] (paper skipped the "
      "G[1] subtraction), and 24/51 are the exhaustive counts.\n");
  std::printf("  reachable cascade permutations |A[7]| = %zu\n",
              enumerator.seen_count());
}

void run_closure_sweep(benchmark::State& state, unsigned max_cost,
                       std::size_t threads) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  for (auto _ : state) {
    synth::ClosureConfig options;
    options.track_witnesses = false;
    options.threads = threads;
    synth::FmcfEnumerator enumerator(library, options);
    enumerator.run_to(max_cost);
    benchmark::DoNotOptimize(enumerator.seen_count());
  }
}

// The unsuffixed single-threaded sweeps keep the seed baseline's benchmark
// names, so name-based deltas against BENCH_seed.json keep working; the
// threads axis lives in the *_threads variants.
void bm_fmcf_to_cost5(benchmark::State& state) {
  run_closure_sweep(state, 5, 1);
}
BENCHMARK(bm_fmcf_to_cost5)->Unit(benchmark::kMillisecond);

void bm_fmcf_to_cost5_threads(benchmark::State& state) {
  run_closure_sweep(state, 5, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(bm_fmcf_to_cost5_threads)
    ->Unit(benchmark::kMillisecond)
    ->ArgName("threads")
    ->Arg(4);

void bm_fmcf_to_cost7(benchmark::State& state) {
  run_closure_sweep(state, 7, 1);
}
BENCHMARK(bm_fmcf_to_cost7)->Unit(benchmark::kMillisecond);

void bm_fmcf_to_cost7_threads(benchmark::State& state) {
  run_closure_sweep(state, 7, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(bm_fmcf_to_cost7_threads)
    ->Unit(benchmark::kMillisecond)
    ->ArgName("threads")
    ->Arg(2)
    ->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  regenerate_table2();
  return qsyn::bench::run_benchmarks(argc, argv);
}
