// Unit and property tests for the peephole cascade simplifier.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "synth/rewrite.h"
#include "synth/specs.h"

namespace qsyn::synth {
namespace {

using gates::Cascade;
using gates::Gate;

TEST(Rewrite, EmptyAndSingleAreFixed) {
  EXPECT_EQ(simplify(Cascade(3)).size(), 0u);
  const Cascade single = Cascade::parse("VBA", 3);
  EXPECT_EQ(simplify(single), single);
}

TEST(Rewrite, InversePairsCancel) {
  EXPECT_EQ(simplify(Cascade::parse("VBA*V+BA", 3)).size(), 0u);
  EXPECT_EQ(simplify(Cascade::parse("V+CA*VCA", 3)).size(), 0u);
  EXPECT_EQ(simplify(Cascade::parse("FAB*FAB", 3)).size(), 0u);
}

TEST(Rewrite, NotPairsCancel) {
  Cascade c(3);
  c.append(Gate::not_gate(1));
  c.append(Gate::not_gate(1));
  EXPECT_EQ(simplify(c).size(), 0u);
}

TEST(Rewrite, TripleVMergesToAdjoint) {
  const Cascade merged = simplify(Cascade::parse("VBA*VBA*VBA", 3));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.gate(0), Gate::ctrl_v_dagger(1, 0));
  const Cascade merged_dag = simplify(Cascade::parse("V+CB*V+CB*V+CB", 3));
  ASSERT_EQ(merged_dag.size(), 1u);
  EXPECT_EQ(merged_dag.gate(0), Gate::ctrl_v(2, 1));
}

TEST(Rewrite, FourthPowerVanishes) {
  EXPECT_EQ(simplify(Cascade::parse("VBA*VBA*VBA*VBA", 3)).size(), 0u);
}

TEST(Rewrite, CommutingBlockExposesCancellation) {
  // VCA commutes with VBA (shared control); sorting brings the V+CA next to
  // VCA and both pairs vanish.
  EXPECT_EQ(simplify(Cascade::parse("VCA*VBA*V+CA*V+BA", 3)).size(), 0u);
  // One survivor.
  const Cascade one = simplify(Cascade::parse("VCA*VBA*V+CA", 3));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.gate(0), Gate::ctrl_v(1, 0));
}

TEST(Rewrite, NonCommutingPairsAreKept) {
  // VBA then VAB do not commute and nothing cancels.
  const Cascade kept = simplify(Cascade::parse("VBA*VAB", 3));
  EXPECT_EQ(kept.size(), 2u);
}

TEST(Rewrite, PaperCircuitsAreAlreadyMinimalLength) {
  for (const Cascade& c :
       {peres_cascade_fig4(), g2_cascade_fig5(), g3_cascade_fig6(),
        g4_cascade_fig7()}) {
    EXPECT_EQ(simplify(c).size(), c.size()) << c.to_string();
  }
  for (const Cascade& c : toffoli_cascades_fig9()) {
    EXPECT_EQ(simplify(c).size(), c.size()) << c.to_string();
  }
}

TEST(Rewrite, CommutationFacts) {
  // Shared control: commute. Shared data: commute. Control of one is data
  // of the other: do not commute.
  EXPECT_TRUE(gates_commute(Gate::ctrl_v(1, 0), Gate::ctrl_v(2, 0), 3));
  EXPECT_TRUE(gates_commute(Gate::ctrl_v(1, 0), Gate::ctrl_v_dagger(1, 2), 3));
  EXPECT_FALSE(gates_commute(Gate::ctrl_v(1, 0), Gate::ctrl_v(0, 1), 3));
  EXPECT_TRUE(gates_commute(Gate::feynman(0, 1), Gate::feynman(0, 2), 3));
  EXPECT_TRUE(gates_commute(Gate::feynman(0, 1), Gate::feynman(2, 1), 3));
  EXPECT_FALSE(gates_commute(Gate::feynman(0, 1), Gate::feynman(1, 2), 3));
  // NOT commutes with a controlled gate acting elsewhere, not with one it
  // controls.
  EXPECT_TRUE(gates_commute(Gate::not_gate(2), Gate::ctrl_v(1, 0), 3));
  EXPECT_FALSE(gates_commute(Gate::not_gate(0), Gate::ctrl_v(1, 0), 3));
}

TEST(Rewrite, SameFullSemanticsDetectsDifference) {
  EXPECT_TRUE(same_full_semantics(Cascade::parse("VBA*VCA", 3),
                                  Cascade::parse("VCA*VBA", 3)));
  EXPECT_FALSE(same_full_semantics(Cascade::parse("VBA", 3),
                                   Cascade::parse("V+BA", 3)));
  EXPECT_FALSE(same_full_semantics(Cascade::parse("VBA", 3),
                                   Cascade::parse("VBA", 2)));
}

TEST(Rewrite, SameFullSemanticsSeesEveryWireAtFiveWires) {
  // Pattern codes take two bits per wire, so at 5 wires wire A's digit sits
  // above the low byte.
  for (std::size_t w = 0; w < 5; ++w) {
    Cascade flip(5);
    flip.append(Gate::not_gate(w));
    EXPECT_FALSE(same_full_semantics(Cascade(5), flip)) << "NOT on wire " << w;
  }
}

class RewriteProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RewriteProperty, PreservesSemanticsAndNeverGrows) {
  // Random cascades over the library plus NOT gates.
  Rng rng(GetParam());
  static const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  static const gates::GateLibrary library(domain);
  Cascade c(3);
  const std::size_t length = rng.below(10);
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.below(5) == 0) {
      c.append(Gate::not_gate(rng.below(3)));
    } else {
      c.append(library.gate(rng.below(library.size())));
    }
  }
  const Cascade s = simplify(c);
  EXPECT_LE(s.size(), c.size());
  EXPECT_TRUE(same_full_semantics(c, s));
  // Idempotence.
  EXPECT_EQ(simplify(s), s);
}

TEST_P(RewriteProperty, CascadeTimesAdjointSimplifiesTowardEmpty) {
  Rng rng(GetParam() * 7919);
  static const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  static const gates::GateLibrary library(domain);
  Cascade c(3);
  for (std::size_t i = 0; i < 4; ++i) {
    c.append(library.gate(rng.below(library.size())));
  }
  Cascade round_trip = c;
  const Cascade adjoint = c.adjoint();
  for (const Gate& g : adjoint.sequence()) round_trip.append(g);
  // The adjoint cancels gate by gate from the middle outward.
  EXPECT_EQ(simplify(round_trip).size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteProperty,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace qsyn::synth
