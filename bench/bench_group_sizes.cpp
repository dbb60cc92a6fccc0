// bench_group_sizes: regenerates the Section-3/5 group-order computations
// the paper delegated to GAP:
//   |G| = |<FAB, FBA, FBC, FCB, Peres>| = 5040,
//   |S8| = 40320,
//   |N| = 2^n = 8 and Theorem 2's coset partition H = ∪ a*G.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "common/metrics.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/cosets.h"
#include "perm/perm_group.h"
#include "synth/fmcf.h"
#include "synth/specs.h"
#include "synth/universality.h"

namespace {

using namespace qsyn;

void regenerate() {
  bench::section("Section 3/5: group orders (in-repo Schreier-Sims vs GAP)");
  const std::uint64_t start = metrics::now_ns();

  const perm::PermGroup feynman_only = synth::group_with_feynman({});
  bench::compare_row("|<Feynman gates>| (= |GL(3,2)|)", 168,
                     static_cast<long long>(feynman_only.order()));

  const perm::PermGroup g = synth::group_with_feynman({synth::peres_perm()});
  bench::compare_row("|G| = |<Feynman, Peres>|", 5040,
                     static_cast<long long>(g.order()));

  const perm::PermGroup m =
      synth::group_with_not_and_feynman(synth::peres_perm());
  bench::compare_row("|M| = |<Peres, NOT, Feynman>|", 40320,
                     static_cast<long long>(m.order()));
  bench::compare_row(
      "|S8|", 40320,
      static_cast<long long>(perm::PermGroup::symmetric(8).order()));

  std::vector<perm::Permutation> not_layers;
  for (const auto& layer : synth::not_layer_cascades(3)) {
    not_layers.push_back(layer.to_binary_permutation());
  }
  bench::compare_row("|N| (NOT-gate group)", 8,
                     static_cast<long long>(not_layers.size()));
  const bool partition = perm::cosets_partition_group(
      not_layers, g, perm::PermGroup::symmetric(8));
  std::printf("  Theorem 2: S8 = disjoint union of the 8 cosets a*G: %s\n",
              bench::status_word(partition));
  std::printf("  total: %.3f s\n", metrics::seconds_since(start));
}

void bm_schreier_sims_s8(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm::PermGroup::symmetric(8).order());
  }
}
BENCHMARK(bm_schreier_sims_s8)->Unit(benchmark::kMicrosecond);

void bm_schreier_sims_feynman_peres(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth::group_with_feynman({synth::peres_perm()}).order());
  }
}
BENCHMARK(bm_schreier_sims_feynman_peres)->Unit(benchmark::kMicrosecond);

void bm_fmcf_group_coverage_cost6(benchmark::State& state) {
  // How fast the FMCF closure accumulates |G[0..6]| (697 of the 5040
  // elements of G) — the group-size computation done by enumeration rather
  // than Schreier-Sims, across the sweep's thread axis.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  for (auto _ : state) {
    synth::ClosureConfig options;
    options.track_witnesses = false;
    options.threads = static_cast<std::size_t>(state.range(0));
    synth::FmcfEnumerator enumerator(library, options);
    enumerator.run_to(6);
    std::size_t cumulative = 1;  // G[0]
    for (const auto& level : enumerator.stats()) cumulative += level.g_new;
    benchmark::DoNotOptimize(cumulative);
  }
}
BENCHMARK(bm_fmcf_group_coverage_cost6)
    ->Unit(benchmark::kMillisecond)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

void bm_membership_test(benchmark::State& state) {
  const perm::PermGroup g = synth::group_with_feynman({synth::peres_perm()});
  const auto probe = synth::fredkin_perm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.contains(probe));
  }
}
BENCHMARK(bm_membership_test)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  regenerate();
  return qsyn::bench::run_benchmarks(argc, argv);
}
