// bench_g4_universality: regenerates the Section-5 structural claims about
// G[4] and Figures 5-7:
//   * |G[4]| = 84 = 60 four-CNOT circuits + 24 Peres-like circuits,
//   * each of the 24 is universal: <g, NOT, Feynman> = S8 (|M| = 40320),
//   * the 24 fall into 4 families under wire permutation (g1..g4),
//   * the paper's g2, g3, g4 cascades realize their printed permutations.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>

#include "bench_util.h"
#include "common/metrics.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "sim/cross_check.h"
#include "synth/fmcf.h"
#include "synth/specs.h"
#include "synth/universality.h"

namespace {

using namespace qsyn;

std::vector<perm::Permutation> wire_shuffles() {
  std::vector<perm::Permutation> out;
  const int orders[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                            {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& order : orders) {
    std::vector<std::uint32_t> images(8);
    for (std::uint32_t bits = 0; bits < 8; ++bits) {
      std::uint32_t shuffled = 0;
      for (int w = 0; w < 3; ++w) {
        shuffled |= ((bits >> (2 - order[w])) & 1u) << (2 - w);
      }
      images[bits] = shuffled + 1;
    }
    out.push_back(perm::Permutation::from_images(images));
  }
  return out;
}

void regenerate() {
  bench::section("Section 5 / Figures 5-7: the 24 universal cost-4 gates");
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  synth::FmcfEnumerator enumerator(library);
  enumerator.run_to(4);

  const auto g4 = enumerator.g_set(4);
  bench::compare_row("|G[4]|", 84, static_cast<long long>(g4.size()));

  std::size_t universal = 0;
  std::vector<perm::Permutation> nonlinear;
  const std::uint64_t start = metrics::now_ns();
  for (const auto& g : g4) {
    if (synth::is_universal_with_not_and_feynman(g)) {
      ++universal;
      nonlinear.push_back(g);
    }
  }
  bench::compare_row("universal (Peres-like) members", 24,
                     static_cast<long long>(universal),
                     "each has |<g,NOT,Feynman>| = 40320");
  bench::compare_row("four-CNOT (linear) members", 60,
                     static_cast<long long>(g4.size() - universal));
  std::printf("  24 universality checks (Schreier-Sims): %.3f s\n",
              metrics::seconds_since(start));

  // Families under wire permutation.
  const auto shuffles = wire_shuffles();
  std::set<perm::Permutation> remaining(nonlinear.begin(), nonlinear.end());
  std::vector<perm::Permutation> reps;
  while (!remaining.empty()) {
    const perm::Permutation rep = *remaining.begin();
    reps.push_back(rep);
    for (const auto& w : shuffles) remaining.erase(w.inverse() * rep * w);
  }
  bench::compare_row("families under wire permutation", 4,
                     static_cast<long long>(reps.size()),
                     "g1 (Peres), g2, g3, g4");
  for (const auto& rep : reps) {
    bench::value_row("family representative", rep.to_cycle_string());
  }

  bench::section("Figures 5-7: printed cascades");
  struct Row {
    const char* name;
    gates::Cascade cascade;
    perm::Permutation target;
  };
  const Row rows[] = {
      {"g2 = V+BC*FCA*VBA*VBC", synth::g2_cascade_fig5(), synth::g2_perm()},
      {"g3 = VCB*FBA*V+CA*VCB", synth::g3_cascade_fig6(), synth::g3_perm()},
      {"g4 = VCB*FBA*VCA*VCB", synth::g4_cascade_fig7(), synth::g4_perm()},
  };
  for (const Row& row : rows) {
    std::printf("  %-26s perm %s  unitary %s\n", row.name,
                bench::status_word(row.cascade.to_binary_permutation() ==
                                   row.target),
                bench::status_word(
                    sim::realizes_permutation(row.cascade, row.target)));
  }
}

void bm_universality_check(benchmark::State& state) {
  const auto peres = synth::peres_perm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::is_universal_with_not_and_feynman(peres));
  }
}
BENCHMARK(bm_universality_check)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  regenerate();
  return qsyn::bench::run_benchmarks(argc, argv);
}
