// bench_fig9_toffoli: regenerates Figure 9 — MCE synthesis of the Toffoli
// gate (7,8). The paper reports quantum cost 5, four implementations
// (Figure 9 a-d, two Hermitian-adjoint pairs differing in the XOR qubit),
// and a 98-second runtime on an 850 MHz Pentium III.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "common/metrics.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "sim/cross_check.h"
#include "synth/mce.h"
#include "synth/specs.h"

namespace {

using namespace qsyn;

void regenerate_fig9() {
  bench::section("Figure 9: Toffoli gate synthesis (MCE)");
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);

  const std::uint64_t start = metrics::now_ns();
  synth::McExpressor mce(library, 7);
  const auto impls = mce.implementations(synth::toffoli_perm());
  const double seconds = metrics::seconds_since(start);

  bench::compare_row("minimal quantum cost", 5,
                     impls.empty() ? -1 : impls.front().cost);
  bench::compare_row("implementations found", 4,
                     static_cast<long long>(impls.size()),
                     "two Hermitian-adjoint pairs");
  for (const auto& impl : impls) {
    const bool exact =
        sim::realizes_permutation(impl.circuit, synth::toffoli_perm());
    std::printf("  implementation %s  (unitary %s)\n",
                impl.circuit.to_string().c_str(), bench::status_word(exact));
  }
  std::printf("  runtime: %.3f s (paper: 98 s on an 850 MHz P-III)\n",
              seconds);

  std::printf("\n  paper's printed circuits (a)-(d):\n");
  for (const auto& c : synth::toffoli_cascades_fig9()) {
    std::printf("    %-24s verifies: %s\n", c.to_string().c_str(),
                bench::status_word(
                    sim::realizes_permutation(c, synth::toffoli_perm())));
  }

  // All length-5 reasonable gate sequences realizing Toffoli (the closure
  // elements group commuting reorderings together).
  const std::size_t sequences = mce.count_sequences(synth::toffoli_perm(), 5);
  bench::value_row("distinct length-5 sequences",
                   std::to_string(sequences) +
                       " (collapse onto the 4 closure elements)");
}

void bm_synthesize_toffoli(benchmark::State& state) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  for (auto _ : state) {
    synth::McExpressor mce(library, 7);  // cold closure each iteration
    benchmark::DoNotOptimize(mce.synthesize(synth::toffoli_perm()));
  }
}
BENCHMARK(bm_synthesize_toffoli)->Unit(benchmark::kMillisecond);

void bm_verify_toffoli_unitary(benchmark::State& state) {
  const auto cascades = synth::toffoli_cascades_fig9();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::realizes_permutation(cascades[0], synth::toffoli_perm()));
  }
}
BENCHMARK(bm_verify_toffoli_unitary);

}  // namespace

int main(int argc, char** argv) {
  regenerate_fig9();
  return qsyn::bench::run_benchmarks(argc, argv);
}
