// Unit tests for the MCE algorithm (Minimum_Cost_Expressing, Theorem 3) and
// the Theorem 2 NOT-coset decomposition.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/cosets.h"
#include "perm/perm_group.h"
#include "sim/cross_check.h"
#include "synth/mce.h"
#include "synth/specs.h"
#include "synth/universality.h"

namespace qsyn::synth {
namespace {

class Mce3 : public ::testing::Test {
 protected:
  static McExpressor& shared() {
    static const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
    static const gates::GateLibrary library(domain);
    static McExpressor mce(library, 7);
    return mce;
  }
};

TEST_F(Mce3, IdentityCostsZero) {
  const auto result = shared().synthesize(perm::Permutation::identity(8));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 0u);
  EXPECT_TRUE(result->not_prefix.empty());
  EXPECT_TRUE(result->circuit.empty());
}

TEST_F(Mce3, PureNotCircuitCostsZero) {
  // (1,2) on binary labels = NOT on wire C: cost 0 (NOT gates are free).
  const auto target = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  const auto result = shared().synthesize(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 0u);
  ASSERT_EQ(result->not_prefix.size(), 1u);
  EXPECT_EQ(result->not_prefix[0], gates::Gate::not_gate(2));
  EXPECT_EQ(result->circuit.to_binary_permutation(), target);
}

TEST_F(Mce3, SingleFeynmanCostsOne) {
  gates::Cascade c(3);
  c.append(gates::Gate::feynman(2, 0));
  const auto result = shared().synthesize(c.to_binary_permutation());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 1u);
}

TEST_F(Mce3, PeresCostsFourAndVerifies) {
  const auto result = shared().synthesize(peres_perm());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 4u);
  EXPECT_TRUE(result->not_prefix.empty());
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, peres_perm()));
}

TEST_F(Mce3, ToffoliCostsFiveAndVerifies) {
  const auto result = shared().synthesize(toffoli_perm());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 5u);
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, toffoli_perm()));
}

TEST_F(Mce3, PeresImplementationsAreHermitianTwins) {
  // The paper found exactly two implementations: Figure 4 and its Hermitian
  // adjoint (Figure 8).
  auto impls = shared().implementations(peres_perm());
  ASSERT_EQ(impls.size(), 2u);
  for (const auto& impl : impls) {
    EXPECT_EQ(impl.cost, 4u);
    EXPECT_TRUE(sim::realizes_permutation(impl.circuit, peres_perm()))
        << impl.circuit.to_string();
  }
  // The paper's twin relation: "swapping all control-V and control-V+
  // gates" (same order, V <-> V+) maps one implementation onto the other's
  // closure element. Verify on the first witness.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  gates::Cascade swapped(3);
  for (const auto& g : impls[0].core.sequence()) {
    swapped.append(g.kind() == gates::GateKind::kFeynman ? g : g.adjoint());
  }
  EXPECT_TRUE(swapped.is_reasonable(domain));
  EXPECT_EQ(swapped.to_binary_permutation(), peres_perm());
  EXPECT_EQ(swapped.to_permutation(domain),
            impls[1].core.to_permutation(domain));
}

TEST_F(Mce3, ToffoliHasFourImplementations) {
  auto impls = shared().implementations(toffoli_perm());
  ASSERT_EQ(impls.size(), 4u);
  for (const auto& impl : impls) {
    EXPECT_EQ(impl.cost, 5u);
    EXPECT_TRUE(sim::realizes_permutation(impl.circuit, toffoli_perm()));
  }
}

TEST_F(Mce3, TargetsMovingLabelOneGetNotPrefix) {
  // Toffoli conjugated into a coset: x -> NOT_A ∘ Toffoli. Its minimal cost
  // is still 5 (Theorem 2: cost is a coset invariant).
  const auto not_a =
      perm::Permutation::from_cycles("(1,5)(2,6)(3,7)(4,8)", 8);
  const auto target = not_a * toffoli_perm();
  const auto result = shared().synthesize(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 5u);
  EXPECT_FALSE(result->not_prefix.empty());
  EXPECT_EQ(result->circuit.to_binary_permutation(), target);
}

TEST_F(Mce3, AllEightCosetRepresentativesSynthesize) {
  // Theorem 2: H = ∪ a*G over the 8 NOT-layer circuits a.
  for (const auto& layer : not_layer_cascades(3)) {
    const auto target = layer.to_binary_permutation() * peres_perm();
    const auto result = shared().synthesize(target);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->cost, 4u);  // coset-invariant cost
    EXPECT_EQ(result->circuit.to_binary_permutation(), target);
  }
}

TEST_F(Mce3, MinimalCostAgreesWithSynthesize) {
  for (const auto& target : {peres_perm(), toffoli_perm(), swap_bc_perm(),
                             g2_perm(), g3_perm(), g4_perm()}) {
    const auto cost = shared().minimal_cost(target);
    const auto result = shared().synthesize(target);
    ASSERT_TRUE(cost.has_value());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*cost, result->cost);
  }
}

TEST_F(Mce3, RandomTargetsRoundTrip) {
  // Draw random members of S8, synthesize, verify, and resynthesize the
  // witness's own permutation at the same cost (Theorem 1/3 consistency).
  Rng rng(2024);
  const perm::PermGroup s8 = perm::PermGroup::symmetric(8);
  const auto elements = s8.elements();
  int synthesized = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto& target = elements[rng.below(elements.size())];
    const auto result = shared().synthesize(target);
    if (!result.has_value()) continue;  // cost exceeds cb = 7
    ++synthesized;
    EXPECT_EQ(result->circuit.to_binary_permutation(), target);
    EXPECT_LE(result->cost, 7u);
  }
  // About a quarter of S8 lies within cost 7 (10136/40320).
  EXPECT_GT(synthesized, 5);
}

TEST_F(Mce3, CountSequencesFindsPaperToffolis) {
  // All length-5 reasonable gate sequences realizing Toffoli. The paper
  // depicts 4 closure elements; each admits several commuting reorderings.
  EXPECT_EQ(shared().count_sequences(toffoli_perm(), 5), 40u);
  // None shorter, and the count one gate deeper.
  EXPECT_EQ(shared().count_sequences(toffoli_perm(), 4), 0u);
  EXPECT_EQ(shared().count_sequences(toffoli_perm(), 6), 416u);
}

TEST_F(Mce3, CountSequencesPeres) {
  EXPECT_EQ(shared().count_sequences(peres_perm(), 4), 8u);
  EXPECT_EQ(shared().count_sequences(peres_perm(), 3), 0u);
}

TEST_F(Mce3, CountSequencesGuards) {
  EXPECT_THROW((void)shared().count_sequences(peres_perm(), 0),
               qsyn::LogicError);
  EXPECT_THROW((void)shared().count_sequences(peres_perm(), 8),
               qsyn::LogicError);
}

TEST(McExpressorBounds, CountSequencesHonorsMaxCost) {
  // Regression: the guard was hard-coded to cost <= 7 instead of the
  // constructor's max_cost. An expressor bounded at 3 must accept exactly
  // cost 1..3; one bounded at 8 must accept cost 8.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  McExpressor bounded(library, 3);
  EXPECT_EQ(bounded.max_cost(), 3u);
  // SWAP(b,c) is realizable with exactly three Feynman gates, in two orders.
  EXPECT_EQ(bounded.count_sequences(swap_bc_perm(), 3), 2u);
  EXPECT_THROW((void)bounded.count_sequences(swap_bc_perm(), 4),
               qsyn::LogicError);

  McExpressor wide(library, 8);
  EXPECT_EQ(wide.count_sequences(swap_bc_perm(), 1), 0u);
  // Boundary: cost == max_cost is in range and must not throw.
  EXPECT_EQ(wide.count_sequences(swap_bc_perm(), 3), 2u);
  EXPECT_THROW((void)wide.count_sequences(swap_bc_perm(), 9),
               qsyn::LogicError);
}

TEST(McExpressorSaturation, UnrealizableTargetReturnsNulloptNotCrash) {
  // Regression: over a tiny library whose closure saturates below max_cost,
  // locate() kept calling advance() on the exhausted enumerator and crashed
  // (and, once advance() became a saturation no-op, would have spun
  // forever). It must report "not realizable" via nullopt.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary full(domain);
  const gates::GateLibrary tiny = full.restricted_to(full.feynman_subset(0, 1));
  McExpressor mce(tiny, 64);
  // Toffoli is nonlinear, the {FAB, FBA} closure is not: never realizable.
  EXPECT_FALSE(mce.synthesize(toffoli_perm()).has_value());
  EXPECT_FALSE(mce.minimal_cost(toffoli_perm()).has_value());
  EXPECT_TRUE(mce.implementations(toffoli_perm()).empty());
  EXPECT_TRUE(mce.enumerator().saturated());
  // Targets inside the tiny closure still synthesize after saturation.
  gates::Cascade fab(3);
  fab.append(gates::Gate::feynman(0, 1));
  const auto result = mce.synthesize(fab.to_binary_permutation());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 1u);
}

TEST(McExpressorThreads, ThreadedClosureSynthesizesIdentically) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  ClosureConfig options;
  options.threads = 4;
  McExpressor mce(library, 7, options);
  const auto peres = mce.synthesize(peres_perm());
  ASSERT_TRUE(peres.has_value());
  EXPECT_EQ(peres->cost, 4u);
  EXPECT_TRUE(sim::realizes_permutation(peres->circuit, peres_perm()));
  EXPECT_EQ(mce.implementations(toffoli_perm()).size(), 4u);
}

TEST_F(Mce3, DegreePadding) {
  // A degree-2 permutation (1,2) pads to the 8 binary labels.
  const auto result =
      shared().synthesize(perm::Permutation::from_cycles("(7,8)"));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 5u);  // it is Toffoli
}

TEST_F(Mce3, OverlyLargeDegreeRejected) {
  EXPECT_THROW(
      (void)shared().synthesize(perm::Permutation::from_cycles("(1,9)", 9)),
      qsyn::LogicError);
}

// --- Theorem 2 as a statement about groups -----------------------------------

TEST(Theorem2, NotLayerCosetsPartitionS8) {
  // G = all circuits from L (binary restricted) = stabilizer of label 1 in
  // the reachable group; the paper proves H = S8 decomposes into the 8
  // cosets a*G for NOT layers a. Verify with G = <Feynman, Peres> (order
  // 5040, = full stabilizer of 1).
  const perm::PermGroup g = group_with_feynman({peres_perm()});
  ASSERT_EQ(g.order(), 5040u);
  std::vector<perm::Permutation> reps;
  for (const auto& layer : not_layer_cascades(3)) {
    reps.push_back(layer.to_binary_permutation());
  }
  ASSERT_EQ(reps.size(), 8u);
  const perm::PermGroup s8 = perm::PermGroup::symmetric(8);
  EXPECT_TRUE(perm::cosets_partition_group(reps, g, s8));
}

TEST(Theorem2, NotLayersAreInvolutionsAndDistinct) {
  const auto layers = not_layer_cascades(3);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto a = layers[i].to_binary_permutation();
    EXPECT_TRUE((a * a).is_identity());
    for (std::size_t j = i + 1; j < layers.size(); ++j) {
      EXPECT_NE(a, layers[j].to_binary_permutation());
    }
  }
}

}  // namespace
}  // namespace qsyn::synth
