// bench_fig4_peres: regenerates Figures 4 and 8 — MCE synthesis of the Peres
// gate (5,7,6,8). The paper reports quantum cost 4, exactly two
// implementations (Figure 4 and its Hermitian adjoint, Figure 8), and a
// 9-second runtime on an 850 MHz Pentium III.
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

void regenerate_fig4() {
  bench::section("Figures 4+8: Peres gate synthesis (MCE)");
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);

  const std::uint64_t start = metrics::now_ns();
  synth::McExpressor mce(library, 7);
  const auto impls = mce.implementations(synth::peres_perm());
  const double seconds = metrics::seconds_since(start);

  bench::compare_row("minimal quantum cost", 4,
                     impls.empty() ? -1 : impls.front().cost);
  bench::compare_row("implementations found", 2,
                     static_cast<long long>(impls.size()),
                     "Fig 4 and its Hermitian adjoint (Fig 8)");
  for (const auto& impl : impls) {
    const bool exact =
        sim::realizes_permutation(impl.circuit, synth::peres_perm());
    std::printf("  %-34s %s  (unitary %s)\n", "implementation",
                impl.circuit.to_string().c_str(), bench::status_word(exact));
    std::printf("%s\n", impl.circuit.to_diagram().c_str());
  }
  std::printf("  runtime: %.3f s (paper: 9 s on an 850 MHz P-III)\n",
              seconds);
  // The paper's printed circuits are among the valid realizations.
  const auto fig4 = synth::peres_cascade_fig4();
  const auto fig8 = synth::peres_cascade_fig8();
  std::printf("  paper Fig 4 cascade %s verifies: %s\n",
              fig4.to_string().c_str(),
              bench::status_word(
                  sim::realizes_permutation(fig4, synth::peres_perm())));
  std::printf("  paper Fig 8 cascade %s verifies: %s\n",
              fig8.to_string().c_str(),
              bench::status_word(
                  sim::realizes_permutation(fig8, synth::peres_perm())));
}

void bm_synthesize_peres(benchmark::State& state) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  for (auto _ : state) {
    synth::McExpressor mce(library, 7);  // cold closure each iteration
    benchmark::DoNotOptimize(mce.synthesize(synth::peres_perm()));
  }
}
BENCHMARK(bm_synthesize_peres)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  regenerate_fig4();
  return qsyn::bench::run_benchmarks(argc, argv);
}
