// Tests for the SynthesisBackend seam and the topology-guided DFS engine:
// McExpressor, TopologySearchBackend and the catalog adapter keep one seam
// contract (same costs and NOT prefixes, verified circuits, nullopt exactly
// beyond max_cost()), and TopologySearchBackend must agree with the closure
// on cost for every closure-reachable target (the cross-backend
// differential), while reaching widths/costs the in-memory closure cannot
// hold (the 5-wire acceptance case).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/permutation.h"
#include "sim/cross_check.h"
#include "synth/catalog_server.h"
#include "synth/mce.h"
#include "synth/search/topology_search.h"
#include "synth/search/visited_set.h"
#include "synth/specs.h"
#include "synth/weighted.h"

namespace qsyn::synth {
namespace {

// ---------------------------------------------------------------------------
// VisitedSet (the DFS transposition memo)

TEST(VisitedSet, AdmitsUnseenAndPrunesRevisits) {
  VisitedSet memo(8, 38, /*budget_bytes=*/0);
  const std::uint8_t a[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::uint8_t b[8] = {1, 0, 2, 3, 4, 5, 6, 7};
  EXPECT_TRUE(memo.admit(a, 3));
  EXPECT_TRUE(memo.admit(b, 3));   // different state
  EXPECT_FALSE(memo.admit(a, 3));  // same depth: prune
  EXPECT_FALSE(memo.admit(a, 5));  // deeper: prune
  EXPECT_TRUE(memo.admit(a, 1));   // strictly shallower: re-explore
  EXPECT_FALSE(memo.admit(a, 2));  // record was lowered to 1
  EXPECT_EQ(memo.rows(), 2u);
}

TEST(VisitedSet, GrowsPastInitialIndexCapacity) {
  VisitedSet memo(8, 782, /*budget_bytes=*/0);
  EXPECT_EQ(memo.row_stride(), 16u);  // 2-byte labels past 256
  std::uint8_t row[16] = {0};
  for (std::uint32_t i = 0; i < 5000; ++i) {
    row[0] = static_cast<std::uint8_t>(i >> 8);
    row[1] = static_cast<std::uint8_t>(i);
    EXPECT_TRUE(memo.admit(row, 2));
  }
  EXPECT_EQ(memo.rows(), 5000u);
  row[0] = 0;
  row[1] = 42;
  EXPECT_FALSE(memo.admit(row, 2));  // still found after index growth
}

TEST(VisitedSet, BudgetStopsRecordingButKeepsExploring) {
  VisitedSet memo(8, 38, /*budget_bytes=*/4 * 8);
  std::uint8_t row[8] = {0};
  for (std::uint8_t i = 0; i < 4; ++i) {
    row[0] = i;
    EXPECT_TRUE(memo.admit(row, 1));
  }
  EXPECT_FALSE(memo.saturated());
  row[0] = 4;
  EXPECT_TRUE(memo.admit(row, 1));  // over budget: explored, not recorded
  EXPECT_TRUE(memo.saturated());
  EXPECT_EQ(memo.rows(), 4u);
  EXPECT_TRUE(memo.admit(row, 1));  // and again (no dedup once saturated)
  row[0] = 0;
  EXPECT_FALSE(memo.admit(row, 1));  // recorded states still prune
}

TEST(VisitedSet, ClearForgetsStatesAndSaturation) {
  VisitedSet memo(8, 38, /*budget_bytes=*/8);
  std::uint8_t row[8] = {0};
  EXPECT_TRUE(memo.admit(row, 0));
  row[0] = 1;
  EXPECT_TRUE(memo.admit(row, 0));
  EXPECT_TRUE(memo.saturated());
  memo.clear();
  EXPECT_FALSE(memo.saturated());
  EXPECT_EQ(memo.rows(), 0u);
  EXPECT_TRUE(memo.admit(row, 4));  // unseen again after clear
}

// ---------------------------------------------------------------------------
// The closure engine behind the seam

class Backend3 : public ::testing::Test {
 protected:
  static const gates::GateLibrary& lib() {
    static const gates::GateLibrary library = gates::GateLibrary::standard(3);
    return library;
  }
};

TEST_F(Backend3, DefaultBatchLoopsOverSynthesize) {
  McExpressor backend(lib(), 7);
  const std::vector<perm::Permutation> targets = {peres_perm(),
                                                  toffoli_perm()};
  const auto batch = backend.synthesize_batch(targets);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].has_value());
  ASSERT_TRUE(batch[1].has_value());
  EXPECT_EQ(batch[0]->cost, 4u);
  EXPECT_EQ(batch[1]->cost, 5u);
}

// ---------------------------------------------------------------------------
// TopologySearchBackend: basics

TEST_F(Backend3, SearchInfo) {
  SearchConfig config;
  config.max_cost = 5;
  TopologySearchBackend search(lib(), config);
  EXPECT_EQ(search.max_cost(), 5u);
  EXPECT_EQ(&search.library(), &lib());
}

TEST_F(Backend3, SearchIdentityCostsZero) {
  TopologySearchBackend search(lib());
  const auto result = search.synthesize(perm::Permutation::identity(8));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 0u);
  EXPECT_TRUE(result->circuit.empty());
}

TEST_F(Backend3, SearchPureNotCircuitCostsZero) {
  const auto target = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  TopologySearchBackend search(lib());
  const auto result = search.synthesize(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 0u);
  ASSERT_EQ(result->not_prefix.size(), 1u);
  EXPECT_EQ(result->not_prefix[0], gates::Gate::not_gate(2));
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, target));
}

TEST_F(Backend3, SearchPeresCostsFourAndVerifies) {
  TopologySearchBackend search(lib());
  const auto result = search.synthesize(peres_perm());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 4u);
  EXPECT_TRUE(result->not_prefix.empty());
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, peres_perm()));
  EXPECT_GE(search.stats().deepest_iteration, 4u);
}

TEST_F(Backend3, SearchToffoliWithNotPrefixVerifies) {
  // Toffoli conjugated into a different coset: NOT on wire A times Toffoli.
  const auto not_a =
      perm::Permutation::from_cycles("(1,5)(2,6)(3,7)(4,8)", 8);
  const auto target = not_a * toffoli_perm();
  TopologySearchBackend search(lib());
  McExpressor closure(lib(), 7);
  const auto via_search = search.synthesize(target);
  const auto via_closure = closure.synthesize(target);
  ASSERT_TRUE(via_search.has_value());
  ASSERT_TRUE(via_closure.has_value());
  EXPECT_EQ(via_search->cost, via_closure->cost);
  EXPECT_FALSE(via_search->not_prefix.empty());
  EXPECT_TRUE(sim::realizes_permutation(via_search->circuit, target));
}

TEST_F(Backend3, SearchMissBeyondMaxCost) {
  SearchConfig config;
  config.max_cost = 3;
  TopologySearchBackend search(lib(), config);
  EXPECT_FALSE(search.synthesize(peres_perm()).has_value());   // cost 4
  EXPECT_FALSE(search.synthesize(toffoli_perm()).has_value());  // cost 5
}

TEST_F(Backend3, SearchLocateReturnsCostAndPrefix) {
  TopologySearchBackend search(lib());
  const auto answer = search.synthesize(peres_perm());
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->cost, 4u);
  EXPECT_TRUE(answer->not_prefix.empty());
}

// ---------------------------------------------------------------------------
// Cross-backend differential: the DFS engine must agree with the closure on
// every closure-reachable 3-qubit circuit at cb = 5, and each cascade it
// returns must simulate to its target exactly.

TEST_F(Backend3, DifferentialEveryClosureTargetAtCb5) {
  McExpressor closure(lib(), 5);
  // Deepen the closure to level 5 (Toffoli's minimal cost is 5).
  const auto toffoli_cost = closure.minimal_cost(toffoli_perm());
  ASSERT_TRUE(toffoli_cost.has_value());
  ASSERT_EQ(*toffoli_cost, 5u);
  const FmcfEnumerator& fmcf = closure.enumerator();
  ASSERT_GE(fmcf.levels_done(), 5u);

  std::vector<perm::Permutation> targets;
  std::vector<unsigned> expected_cost;
  for (unsigned k = 1; k <= 5; ++k) {
    for (auto& g : fmcf.g_set(k)) {
      targets.push_back(std::move(g));
      expected_cost.push_back(k);
    }
  }
  ASSERT_FALSE(targets.empty());

  SearchConfig config;
  config.max_cost = 5;
  TopologySearchBackend search(lib(), config);
  const auto answers = search.synthesize_batch(targets);
  ASSERT_EQ(answers.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(answers[i].has_value()) << "target " << i << " unanswered";
    EXPECT_EQ(answers[i]->cost, expected_cost[i]) << "target " << i;
    EXPECT_TRUE(sim::realizes_permutation(answers[i]->circuit, targets[i]))
        << "target " << i;
  }
}

TEST_F(Backend3, PruningAblationsAgreeOnCosts) {
  // The canonical-order prunes and the memo are exactness-preserving: with
  // everything disabled the (much slower) plain banned-set DFS must report
  // the same costs.
  const std::vector<perm::Permutation> targets = {
      peres_perm(), g2_perm(), g3_perm(), g4_perm(), swap_bc_perm()};
  SearchConfig pruned;
  pruned.max_cost = 4;
  SearchConfig plain;
  plain.max_cost = 4;
  plain.prune_adjoint_pairs = false;
  plain.prune_commuting_pairs = false;
  plain.visited_budget_bytes = 1;  // memo saturates immediately
  TopologySearchBackend fast(lib(), pruned);
  TopologySearchBackend slow(lib(), plain);
  for (const auto& target : targets) {
    const auto a = fast.synthesize(target);
    const auto b = slow.synthesize(target);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->cost, b->cost);
      EXPECT_EQ(a->not_prefix, b->not_prefix);
    }
  }
  // The prunes must actually fire (and the ablation must not).
  EXPECT_GT(fast.stats().pruned_adjoint, 0u);
  EXPECT_GT(fast.stats().pruned_commuting, 0u);
  EXPECT_EQ(slow.stats().pruned_adjoint, 0u);
  EXPECT_EQ(slow.stats().pruned_commuting, 0u);
}

TEST_F(Backend3, BatchMixesCosetsAndDuplicates) {
  const auto not_c = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  const std::vector<perm::Permutation> targets = {
      peres_perm(), perm::Permutation::identity(8), peres_perm(),
      not_c * peres_perm(), not_c};
  TopologySearchBackend search(lib());
  const auto answers = search.synthesize_batch(targets);
  ASSERT_EQ(answers.size(), 5u);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(answers[i].has_value());
    EXPECT_TRUE(sim::realizes_permutation(answers[i]->circuit, targets[i]));
  }
  EXPECT_EQ(answers[0]->cost, 4u);
  EXPECT_EQ(answers[1]->cost, 0u);
  EXPECT_EQ(answers[2]->cost, 4u);
  EXPECT_EQ(answers[0]->circuit, answers[2]->circuit);  // same sweep, same hit
  EXPECT_EQ(answers[3]->cost, 4u);
  EXPECT_EQ(answers[4]->cost, 0u);
}

// ---------------------------------------------------------------------------
// CatalogServer behind the seam: the search backend as the miss-path
// fallback, and the server itself adapted onto SynthesisBackend.

/// A cb = 4 serving layer over the shared static library (the enumerator
/// keeps a pointer to it): Toffoli (cost 5) is a guaranteed catalog miss.
CatalogServer make_server4(const gates::GateLibrary& library) {
  FmcfEnumerator closure(library);
  closure.run_to(4);
  return CatalogServer(std::move(closure));
}

std::shared_ptr<TopologySearchBackend> make_search_fallback(
    const gates::GateLibrary& library, unsigned max_cost = 5) {
  SearchConfig config;
  config.max_cost = max_cost;
  return std::make_shared<TopologySearchBackend>(library, config);
}

TEST_F(Backend3, CatalogMissAnswersThroughSearchFallback) {
  CatalogServer server = make_server4(lib());
  // Beyond the stored levels: a plain miss without a fallback...
  EXPECT_FALSE(server.has_fallback());
  EXPECT_FALSE(server.synthesize(toffoli_perm()).has_value());
  // ...and the search backend's witness with one.
  server.set_fallback(make_search_fallback(lib()));
  EXPECT_TRUE(server.has_fallback());
  const auto result = server.synthesize(toffoli_perm());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 5u);
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, toffoli_perm()));
  // Catalog hits never touch the fallback and stay byte-identical.
  const auto hit = server.synthesize(peres_perm());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cost, 4u);
  // locate() is catalog-only: its answer is a storage location.
  EXPECT_FALSE(server.locate(toffoli_perm()).has_value());
  // Unplugging restores the plain miss.
  server.set_fallback(nullptr);
  EXPECT_FALSE(server.has_fallback());
  EXPECT_FALSE(server.synthesize(toffoli_perm()).has_value());
}

TEST_F(Backend3, FallbackForDifferentLibraryThrows) {
  CatalogServer server = make_server4(lib());
  const gates::GateLibrary other = gates::GateLibrary::standard(2);
  EXPECT_THROW(server.set_fallback(make_search_fallback(other)),
               qsyn::LogicError);
  EXPECT_FALSE(server.has_fallback());
}

TEST_F(Backend3, AsBackendServesStoredAnswersAndFallback) {
  CatalogServer server = make_server4(lib());
  const auto backend = server.as_backend();
  EXPECT_EQ(backend->max_cost(), 4u);
  EXPECT_EQ(backend->library().fingerprint(), lib().fingerprint());

  // A stored answer through the seam matches the server byte for byte.
  const auto via_seam = backend->synthesize(peres_perm());
  const auto direct = server.synthesize(peres_perm());
  ASSERT_TRUE(via_seam.has_value() && direct.has_value());
  EXPECT_EQ(via_seam->circuit, direct->circuit);
  EXPECT_EQ(via_seam->cost, 4u);
  EXPECT_TRUE(via_seam->not_prefix.empty());

  // With a fallback the adapter answers misses too.
  EXPECT_FALSE(backend->synthesize(toffoli_perm()).has_value());
  server.set_fallback(make_search_fallback(lib()));
  EXPECT_EQ(backend->max_cost(), 5u);
  const auto miss = backend->synthesize(toffoli_perm());
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->cost, 5u);
  EXPECT_TRUE(miss->not_prefix.empty());
  const auto batch = backend->synthesize_batch({peres_perm(), toffoli_perm()});
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].has_value() && batch[1].has_value());
  EXPECT_EQ(batch[0]->cost, 4u);
  EXPECT_EQ(batch[1]->cost, 5u);
}

TEST_F(Backend3, AsBackendCeilingCoversTheFallback) {
  // The adapter answers every target the fallback reaches, so its ceiling is
  // the fallback's when that is higher than the stored depth.
  CatalogServer server = make_server4(lib());
  const auto backend = server.as_backend();
  server.set_fallback(std::make_shared<TopologySearchBackend>(lib()));
  EXPECT_EQ(backend->max_cost(), 7u);
  // A shallower fallback leaves the stored depth as the ceiling.
  server.set_fallback(make_search_fallback(lib(), 3));
  EXPECT_EQ(backend->max_cost(), 4u);
  server.set_fallback(nullptr);
  EXPECT_EQ(backend->max_cost(), 4u);
}

/// Drives `engine` through the seam over `targets` with minimal costs
/// `expected`: an answer exactly when the cost is within max_cost(), with
/// that cost, Theorem 2's NOT prefix and a circuit that simulates to the
/// target.
void expect_seam_contract(SynthesisBackend& engine,
                          const std::vector<perm::Permutation>& targets,
                          const std::vector<unsigned>& expected) {
  for (std::size_t i = 0; i < targets.size(); ++i) {
    SCOPED_TRACE(targets[i].to_cycle_string());
    const auto answer = engine.synthesize(targets[i]);
    ASSERT_EQ(answer.has_value(), expected[i] <= engine.max_cost());
    if (!answer.has_value()) continue;
    EXPECT_EQ(answer->cost, expected[i]);
    EXPECT_EQ(answer->not_prefix,
              strip_not_prefix(3, targets[i]).not_prefix);
    EXPECT_TRUE(sim::realizes_permutation(answer->circuit, targets[i]));
  }
}

TEST_F(Backend3, SeamContractHoldsOnEveryEngine) {
  const auto not_c = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  const std::vector<perm::Permutation> targets = {
      perm::Permutation::identity(8), not_c, peres_perm(), toffoli_perm(),
      fredkin_perm()};
  const std::vector<unsigned> costs = {0, 0, 4, 5, 7};

  // cb = 7: every target is answered, by the closure, by the DFS, and by a
  // cb = 4 catalog that passes Toffoli and Fredkin to its search fallback.
  McExpressor closure(lib(), 7);
  TopologySearchBackend search(lib());
  CatalogServer server = make_server4(lib());
  server.set_fallback(std::make_shared<TopologySearchBackend>(lib()));
  const auto catalog = server.as_backend();
  for (SynthesisBackend* engine :
       {static_cast<SynthesisBackend*>(&closure),
        static_cast<SynthesisBackend*>(&search), catalog.get()}) {
    EXPECT_EQ(engine->max_cost(), 7u);
    EXPECT_EQ(engine->library().fingerprint(), lib().fingerprint());
    expect_seam_contract(*engine, targets, costs);
  }

  // cb = 4, no fallback: Toffoli and Fredkin lie beyond every ceiling.
  McExpressor closure4(lib(), 4);
  SearchConfig config;
  config.max_cost = 4;
  TopologySearchBackend search4(lib(), config);
  CatalogServer server4 = make_server4(lib());
  const auto catalog4 = server4.as_backend();
  for (SynthesisBackend* engine :
       {static_cast<SynthesisBackend*>(&closure4),
        static_cast<SynthesisBackend*>(&search4), catalog4.get()}) {
    EXPECT_EQ(engine->max_cost(), 4u);
    expect_seam_contract(*engine, targets, costs);
  }

  // Each engine over a 2-wire library is rejected wherever a backend plugs
  // in behind another.
  const gates::GateLibrary two_wires = gates::GateLibrary::standard(2);
  FmcfEnumerator enumerator2(two_wires);
  enumerator2.run_to(2);
  CatalogServer server2(std::move(enumerator2));
  const std::shared_ptr<SynthesisBackend> others[] = {
      std::make_shared<McExpressor>(two_wires, 5),
      std::make_shared<TopologySearchBackend>(two_wires),
      server2.as_backend()};
  WeightedSynthesizer dijkstra(lib(), gates::CostModel::unit());
  for (const auto& other : others) {
    EXPECT_THROW(server4.set_fallback(other), qsyn::LogicError);
    EXPECT_THROW(dijkstra.set_bound_backend(other.get()), qsyn::LogicError);
  }
  EXPECT_FALSE(server4.has_fallback());
}

TEST_F(Backend3, ConcurrentMissesSerializeOnTheFallback) {
  CatalogServer server = make_server4(lib());
  server.set_fallback(make_search_fallback(lib()));
  const auto not_a = perm::Permutation::from_cycles("(1,5)(2,6)(3,7)(4,8)", 8);
  const std::vector<perm::Permutation> targets = {
      toffoli_perm(), peres_perm(), not_a * toffoli_perm(), g3_perm()};
  const std::vector<unsigned> expected = {5, 4, 5, 4};
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        const auto result = server.synthesize(targets[t]);
        if (!result.has_value() || result->cost != expected[t] ||
            !sim::realizes_permutation(result->circuit, targets[t])) {
          failures[t] = 1;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures, std::vector<int>(4, 0));
}

// ---------------------------------------------------------------------------
// 4 wires: spot check against the closure.

TEST(Backend4, SpotCheckCnotChainAgainstClosure) {
  const gates::GateLibrary library = gates::GateLibrary::standard(4);
  gates::Cascade chain(4);
  chain.append(gates::Gate::feynman(0, 1));
  chain.append(gates::Gate::feynman(1, 2));
  chain.append(gates::Gate::feynman(2, 3));
  const auto target = chain.to_binary_permutation();

  SearchConfig config;
  config.max_cost = 3;
  TopologySearchBackend search(library, config);
  const auto result = search.synthesize(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 3u);
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, target));

  McExpressor closure(library, 3);
  const auto expected = closure.minimal_cost(target);
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(result->cost, *expected);

  SearchConfig shallow;
  shallow.max_cost = 2;
  TopologySearchBackend miss(library, shallow);
  EXPECT_FALSE(miss.synthesize(target).has_value());  // proves cost == 3
}

TEST(SearchPrunes, CommutingSwapIsReasonableLabelByLabel) {
  // The commuting-pair prune drops the descending order of two commuting
  // gates without checking that the ascending order is reasonable. That is
  // exact because the implication below holds at every label, and a
  // prefix's banned mask is the OR over its binary images: for commuting
  // gates g != h, h allowed at x and g allowed at h(x) imply g allowed at x
  // and h allowed at g(x). Read from the gates' permutations and the
  // domain's masks, not from the library's tables.
  for (std::size_t n = 2; n <= 5; ++n) {
    const gates::GateLibrary library = gates::GateLibrary::standard(n);
    const mvl::PatternDomain& domain = library.domain();
    const auto allowed = [&](std::size_t gate, std::uint32_t label) {
      return (domain.banned_mask(label) >> library.banned_class_of(gate) &
              1u) == 0;
    };
    std::size_t checked = 0;  // 421,200 labels over 1,960 pairs at n = 5
    for (std::size_t g = 0; g < library.size(); ++g) {
      const perm::Permutation& pg = library.permutation(g);
      for (std::size_t h = 0; h < library.size(); ++h) {
        const perm::Permutation& ph = library.permutation(h);
        if (g == h || pg * ph != ph * pg) continue;
        for (std::uint32_t x = 1; x <= domain.size(); ++x) {
          if (!allowed(h, x) || !allowed(g, ph.apply(x))) continue;
          ++checked;
          EXPECT_TRUE(allowed(g, x) && allowed(h, pg.apply(x)))
              << "n = " << n << ", " << library.gate(g).name() << " and "
              << library.gate(h).name() << " at label " << x;
        }
      }
    }
    EXPECT_GT(checked, 0u) << "n = " << n;
  }
}

// ---------------------------------------------------------------------------
// 5 wires: the acceptance case — a target the in-memory closure cannot
// reach. Deepening the 5-wire closure to k = 4 spills its 1.2 GiB level-4
// frontier; the DFS engine answers the same question in tens of MiB by
// searching instead of storing.

TEST(Backend5, PeresEmbeddedBeyondInMemoryClosureReach) {
  const gates::GateLibrary library = gates::GateLibrary::standard(5);

  // Peres on wires {A, B, C}, identity on {D, E}.
  const auto peres = peres_perm();
  std::vector<std::uint32_t> images(32);
  for (std::uint32_t l = 0; l < 32; ++l) {
    const std::uint32_t abc = l >> 2;
    const std::uint32_t de = l & 3u;
    images[l] = ((peres.apply(abc + 1) - 1) << 2 | de) + 1;
  }
  const auto target = perm::Permutation::from_images(std::move(images));

  // Exhausting every reasonable cascade of <= 3 gates proves cost >= 4.
  SearchConfig shallow;
  shallow.max_cost = 3;
  TopologySearchBackend lower_bound(library, shallow);
  EXPECT_FALSE(lower_bound.synthesize(target).has_value());

  SearchConfig config;
  config.max_cost = 4;
  TopologySearchBackend search(library, config);
  const auto result = search.synthesize(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 4u);
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, target));
  // The whole search fits in the memo budget where the closure would spill.
  EXPECT_LT(search.stats().peak_memo_rows * 64u, std::size_t(1) << 28);
}

}  // namespace
}  // namespace qsyn::synth
