// Unit tests for the weighted (arbitrary cost model) Dijkstra synthesizer —
// the executable form of the paper's claim that the method adapts to
// "any particular numerical values of costs" (e.g. NMR pulse costs [4]) —
// and for the weighted query path over the persistent catalog
// (CatalogServer::locate_weighted: "cheapest stored realization under
// cost model X").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/error.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "sim/cross_check.h"
#include "synth/backend.h"
#include "synth/catalog_server.h"
#include "synth/fmcf.h"
#include "synth/mce.h"
#include "synth/search/topology_search.h"
#include "synth/specs.h"
#include "synth/weighted.h"

namespace qsyn::synth {
namespace {

const gates::GateLibrary& library3() {
  static const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  static const gates::GateLibrary lib(domain);
  return lib;
}

TEST(Weighted, UnitModelMatchesMceOnNamedCircuits) {
  const WeightedSynthesizer dijkstra(library3(), gates::CostModel::unit());
  McExpressor mce(library3(), 7);
  for (const auto& target : {peres_perm(), toffoli_perm(), swap_bc_perm(),
                             g2_perm(), g3_perm(), g4_perm()}) {
    const auto weighted = dijkstra.minimal_cost(target);
    const auto bfs = mce.minimal_cost(target);
    ASSERT_TRUE(weighted.has_value());
    ASSERT_TRUE(bfs.has_value());
    EXPECT_EQ(*weighted, *bfs) << target.to_cycle_string();
  }
}

TEST(Weighted, IdentityCostsZero) {
  const WeightedSynthesizer dijkstra(library3(), gates::CostModel::unit());
  const auto result = dijkstra.synthesize(perm::Permutation::identity(8));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 0u);
  EXPECT_TRUE(result->circuit.empty());
}

TEST(Weighted, WitnessRealizesTarget) {
  const WeightedSynthesizer dijkstra(library3(), gates::CostModel::unit());
  for (const auto& target : {peres_perm(), toffoli_perm()}) {
    const auto result = dijkstra.synthesize(target);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->circuit.to_binary_permutation(), target);
    EXPECT_TRUE(sim::realizes_permutation(result->circuit, target));
  }
}

TEST(Weighted, FreeNotGatesAreUsedForCosets) {
  // Unit model: NOT costs 0, so a pure NOT layer synthesizes at cost 0.
  const WeightedSynthesizer dijkstra(library3(), gates::CostModel::unit());
  const auto not_c = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  const auto result = dijkstra.synthesize(not_c);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 0u);
  EXPECT_EQ(result->circuit.to_binary_permutation(), not_c);
}

TEST(Weighted, NmrModelChargesNotGates) {
  const WeightedSynthesizer dijkstra(library3(), gates::CostModel::nmr_like());
  const auto not_c = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  const auto result = dijkstra.synthesize(not_c);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, gates::CostModel::nmr_like().not_gate);
}

TEST(Weighted, NmrCostsAreModelConsistent) {
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  const WeightedSynthesizer dijkstra(library3(), nmr);
  const auto result = dijkstra.synthesize(toffoli_perm());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, result->circuit.cost(nmr));
  EXPECT_EQ(result->circuit.to_binary_permutation(), toffoli_perm());
  // No realization can beat it: the unit-optimal witness costs >= this.
  McExpressor mce(library3(), 7);
  const auto unit_result = mce.synthesize(toffoli_perm());
  ASSERT_TRUE(unit_result.has_value());
  EXPECT_LE(result->cost, unit_result->circuit.cost(nmr));
}

TEST(Weighted, SwapIsThreeCnotsInBothModels) {
  const WeightedSynthesizer unit(library3(), gates::CostModel::unit());
  const WeightedSynthesizer nmr(library3(), gates::CostModel::nmr_like());
  EXPECT_EQ(unit.minimal_cost(swap_bc_perm()), 3u);
  EXPECT_EQ(nmr.minimal_cost(swap_bc_perm()),
            3u * gates::CostModel::nmr_like().feynman);
}

TEST(Weighted, WithoutNotGatesCosetTargetsCostMore) {
  const WeightedSynthesizer with_not(library3(), gates::CostModel::unit(),
                                     /*include_not_gates=*/true);
  const WeightedSynthesizer without_not(library3(), gates::CostModel::unit(),
                                        /*include_not_gates=*/false);
  const auto not_c = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  EXPECT_EQ(with_not.minimal_cost(not_c), 0u);
  // Without NOT gates every library gate fixes the all-zero pattern, so a
  // target moving label 1 is unreachable: the search exhausts the (finite)
  // reachable signature space and reports failure.
  EXPECT_FALSE(without_not.minimal_cost(not_c).has_value());
}

TEST(Weighted, StateBoundThrows) {
  const WeightedSynthesizer tiny(library3(), gates::CostModel::unit(), true,
                                 32);
  EXPECT_THROW((void)tiny.minimal_cost(toffoli_perm()), qsyn::SynthesisError);
}

TEST(Weighted, BoundBackendKeepsAnswersExact) {
  // The upper-bound prune is exactness-preserving: every prefix of an
  // optimal path costs at most the optimum, which the backend's witness
  // bounds from above.
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  McExpressor closure(library3(), 7);
  const WeightedSynthesizer plain(library3(), nmr);
  WeightedSynthesizer bounded(library3(), nmr);
  bounded.set_bound_backend(&closure);
  for (const auto& target : {peres_perm(), toffoli_perm(), swap_bc_perm(),
                             g2_perm(), g3_perm(), g4_perm()}) {
    EXPECT_EQ(bounded.minimal_cost(target), plain.minimal_cost(target))
        << target.to_cycle_string();
  }
}

TEST(Weighted, BoundBackendShrinksTheExploredStateSet) {
  // Toffoli under the NMR model needs ~196k explored signatures unpruned
  // but fits in ~89k with the closure witness as an upper bound, so at a
  // 120k state cap only the bounded synthesizer survives.
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  const WeightedSynthesizer plain(library3(), nmr, true, 120000);
  EXPECT_THROW((void)plain.minimal_cost(toffoli_perm()), qsyn::SynthesisError);

  McExpressor closure(library3(), 7);
  WeightedSynthesizer bounded(library3(), nmr, true, 120000);
  bounded.set_bound_backend(&closure);
  const auto cost = bounded.minimal_cost(toffoli_perm());
  const WeightedSynthesizer reference(library3(), nmr);
  EXPECT_EQ(cost, reference.minimal_cost(toffoli_perm()));
}

TEST(Weighted, BoundBackendForDifferentLibraryThrows) {
  static const gates::GateLibrary lib2 = gates::GateLibrary::standard(2);
  McExpressor other(lib2, 5);
  WeightedSynthesizer dijkstra(library3(), gates::CostModel::unit());
  EXPECT_THROW(dijkstra.set_bound_backend(&other), qsyn::LogicError);
  // nullptr unplugs without complaint.
  dijkstra.set_bound_backend(nullptr);
}

TEST(Weighted, DegreeGuard) {
  const WeightedSynthesizer dijkstra(library3(), gates::CostModel::unit());
  EXPECT_THROW(
      (void)dijkstra.minimal_cost(perm::Permutation::from_cycles("(1,9)", 9)),
      qsyn::LogicError);
}

// --- the weighted query path over the persistent catalog --------------------

/// One shared cb = 5 serving layer for the weighted-catalog tests.
const CatalogServer& server5() {
  static const CatalogServer* server = [] {
    // The enumerator stores a pointer to its library, so serve over the
    // static library3() rather than a temporary.
    FmcfEnumerator closure(library3());
    closure.run_to(5);
    return new CatalogServer(std::move(closure));
  }();
  return *server;
}

TEST(CatalogWeighted, UnitModelReproducesMinimalCost) {
  // Under the paper's unit model the cheapest stored realization is exactly
  // the minimal-gate-count one, so the catalog's weighted answer must agree
  // with plain MCE on every named circuit.
  McExpressor mce(library3(), 5);
  for (const auto& target : {peres_perm(), toffoli_perm(), swap_bc_perm(),
                             g2_perm(), g3_perm(), g4_perm()}) {
    const auto answer =
        server5().locate_weighted(target, gates::CostModel::unit());
    const auto bfs = mce.minimal_cost(target);
    ASSERT_TRUE(answer.has_value()) << target.to_cycle_string();
    ASSERT_TRUE(bfs.has_value());
    EXPECT_EQ(answer->model_cost, *bfs);
    EXPECT_EQ(answer->gate_count, *bfs);
    EXPECT_EQ(answer->circuit.to_binary_permutation(), target);
  }
}

TEST(CatalogWeighted, NmrModelPicksTheCheapestImplementation) {
  // Non-uniform costs: the server must return the min over every stored
  // implementation row, which we cross-check against a hand scan of the
  // expressor's implementations (2 for Peres, 4 for Toffoli).
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  McExpressor mce(library3(), 5);
  for (const auto& target : {peres_perm(), toffoli_perm(), g3_perm()}) {
    const auto implementations = mce.implementations(target);
    ASSERT_FALSE(implementations.empty());
    unsigned cheapest = implementations.front().circuit.cost(nmr);
    for (const SynthesisResult& impl : implementations) {
      cheapest = std::min(cheapest, impl.circuit.cost(nmr));
    }
    const auto answer = server5().locate_weighted(target, nmr);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->model_cost, cheapest) << target.to_cycle_string();
    EXPECT_EQ(answer->circuit.cost(nmr), answer->model_cost);
    EXPECT_EQ(answer->circuit.to_binary_permutation(), target);
  }
}

TEST(CatalogWeighted, DeeperScanNeverCostsMore) {
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  for (const auto& target : {peres_perm(), swap_bc_perm(), g2_perm()}) {
    const auto minimal_level = server5().locate_weighted(target, nmr, false);
    const auto all_levels = server5().locate_weighted(target, nmr, true);
    ASSERT_TRUE(minimal_level.has_value());
    ASSERT_TRUE(all_levels.has_value());
    EXPECT_LE(all_levels->model_cost, minimal_level->model_cost);
    EXPECT_EQ(all_levels->circuit.to_binary_permutation(), target);
  }
}

TEST(CatalogWeighted, DijkstraLowerBoundsTheCatalogAnswer) {
  // The Dijkstra search optimizes over *all* cascades (NOT gates as weighted
  // moves included); the catalog only ranks its stored realizations, so the
  // global optimum can never exceed the catalog's answer.
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  const WeightedSynthesizer dijkstra(library3(), nmr);
  for (const auto& target : {peres_perm(), toffoli_perm(), swap_bc_perm()}) {
    const auto exact = dijkstra.minimal_cost(target);
    const auto stored = server5().locate_weighted(target, nmr, true);
    ASSERT_TRUE(exact.has_value());
    ASSERT_TRUE(stored.has_value());
    EXPECT_LE(*exact, stored->model_cost) << target.to_cycle_string();
  }
}

TEST(CatalogWeighted, MissBeyondStoredDepth) {
  // Fredkin first appears in G[7]; a cb = 5 catalog reports it unreachable
  // under every model instead of guessing.
  EXPECT_FALSE(
      server5().locate_weighted(fredkin_perm(), gates::CostModel::unit())
          .has_value());
  EXPECT_FALSE(
      server5().locate_weighted(fredkin_perm(), gates::CostModel::nmr_like())
          .has_value());
}

TEST(CatalogWeighted, StopReasonSaysHowFarTheScanGot) {
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  // Minimal level only: deeper stored levels were never ranked.
  const auto minimal = server5().locate_weighted(peres_perm(), nmr, false);
  ASSERT_TRUE(minimal.has_value());
  EXPECT_EQ(minimal->stopped, WeightedScanStop::kMinimalLevelOnly);
  // Deeper scan over a cb = 5 closure: every stored level was ranked, but
  // the closure was budget-cut before saturating, so cheaper realizations
  // could exist beyond the stored depth.
  const auto deeper = server5().locate_weighted(peres_perm(), nmr, true);
  ASSERT_TRUE(deeper.has_value());
  EXPECT_EQ(deeper->stopped, WeightedScanStop::kStoredDepthLimit);
  // An identity core is the global optimum under any model: nothing to scan.
  const auto identity =
      server5().locate_weighted(perm::Permutation::identity(8), nmr, false);
  ASSERT_TRUE(identity.has_value());
  EXPECT_EQ(identity->stopped, WeightedScanStop::kExhausted);
}

TEST(CatalogWeighted, SaturatedClosureReportsExhausted) {
  // Over a saturated closure a full scan *is* the global optimum: the tiny
  // Feynman-pair library exhausts its reachable group within a few levels.
  static const gates::GateLibrary tiny =
      library3().restricted_to(library3().feynman_subset(0, 1));
  FmcfEnumerator closure(tiny);
  closure.run_to(64);
  ASSERT_TRUE(closure.saturated());
  const CatalogServer server(std::move(closure));
  gates::Cascade fab(3);
  fab.append(gates::Gate::feynman(0, 1));
  const auto answer = server.locate_weighted(fab.to_binary_permutation(),
                                             gates::CostModel::unit(), true);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->stopped, WeightedScanStop::kExhausted);
}

TEST(CatalogWeighted, FallbackBackendAnswersBeyondStoredDepth) {
  // A cb = 4 catalog misses Toffoli (cost 5); with a search backend plugged
  // in the weighted query returns its single witness, flagged as such (one
  // minimal-gate-count cascade, not a ranked scan of alternatives).
  FmcfEnumerator closure(library3());
  closure.run_to(4);
  CatalogServer server(std::move(closure));
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  EXPECT_FALSE(server.locate_weighted(toffoli_perm(), nmr, true).has_value());

  SearchConfig config;
  config.max_cost = 5;
  server.set_fallback(
      std::make_shared<TopologySearchBackend>(library3(), config));
  const auto answer = server.locate_weighted(toffoli_perm(), nmr, true);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->stopped, WeightedScanStop::kFallbackBackend);
  EXPECT_EQ(answer->gate_count, 5u);
  EXPECT_EQ(answer->model_cost, answer->circuit.cost(nmr));
  EXPECT_EQ(answer->circuit.to_binary_permutation(), toffoli_perm());
}

TEST(CatalogWeighted, DiskRoundTripServesTheSameWeightedAnswers) {
  const std::string path =
      ::testing::TempDir() + "qsyn_weighted_catalog.qscat";
  server5().enumerator().save_catalog(path);
  const CatalogServer reopened =
      CatalogServer::open(path, server5().enumerator().library());
  const gates::CostModel nmr = gates::CostModel::nmr_like();
  for (const auto& target : {peres_perm(), toffoli_perm(), g4_perm()}) {
    const auto a = server5().locate_weighted(target, nmr);
    const auto b = reopened.locate_weighted(target, nmr);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(b->model_cost, a->model_cost);
    EXPECT_EQ(b->gate_count, a->gate_count);
    EXPECT_EQ(b->circuit.sequence(), a->circuit.sequence());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qsyn::synth
