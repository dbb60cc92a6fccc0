// Unit tests for qsyn/sim: the state-vector simulator, unitary construction,
// and the MV-model / Hilbert-space cross-validation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "la/gate_constants.h"
#include "mvl/domain.h"
#include "sim/cross_check.h"
#include "sim/state_vector.h"
#include "sim/unitary.h"
#include "synth/specs.h"

namespace qsyn::sim {
namespace {

using gates::Cascade;
using gates::Gate;

TEST(StateVector, StartsInAllZeros) {
  const StateVector s(3);
  EXPECT_EQ(s.dimension(), 8u);
  EXPECT_NEAR(s.probability_of(0), 1.0, 1e-12);
}

TEST(StateVector, BasisState) {
  const StateVector s = StateVector::basis(3, 5);
  EXPECT_NEAR(s.probability_of(5), 1.0, 1e-12);
  EXPECT_NEAR(s.probability_of(0), 0.0, 1e-12);
}

TEST(StateVector, NotOnWireZeroFlipsMsb) {
  StateVector s(3);
  s.apply_gate(Gate::not_gate(0));
  EXPECT_NEAR(s.probability_of(0b100), 1.0, 1e-12);
}

TEST(StateVector, CnotActsOnlyWhenControlSet) {
  StateVector s = StateVector::basis(2, 0b01);  // A=0, B=1
  s.apply_gate(Gate::feynman(0, 1));            // FAB: A ^= B
  EXPECT_NEAR(s.probability_of(0b11), 1.0, 1e-12);
  StateVector t = StateVector::basis(2, 0b10);  // A=1, B=0
  t.apply_gate(Gate::feynman(0, 1));
  EXPECT_NEAR(t.probability_of(0b10), 1.0, 1e-12);
}

TEST(StateVector, ControlledVCreatesMixedState) {
  StateVector s = StateVector::basis(2, 0b10);  // A=1, B=0
  s.apply_gate(Gate::ctrl_v(1, 0));             // VBA
  // B now carries V|0>: both outcomes equal probability 1/2.
  EXPECT_NEAR(s.probability_of(0b10), 0.5, 1e-12);
  EXPECT_NEAR(s.probability_of(0b11), 0.5, 1e-12);
  EXPECT_NEAR(s.probability_one(1), 0.5, 1e-12);
  EXPECT_NEAR(s.probability_one(0), 1.0, 1e-12);
}

TEST(StateVector, TwoControlledVEqualsCnot) {
  StateVector s = StateVector::basis(2, 0b10);
  s.apply_gate(Gate::ctrl_v(1, 0));
  s.apply_gate(Gate::ctrl_v(1, 0));
  EXPECT_NEAR(s.probability_of(0b11), 1.0, 1e-12);
}

TEST(StateVector, FromPatternMatchesGateAction) {
  StateVector direct = StateVector::basis(2, 0b10);
  direct.apply_gate(Gate::ctrl_v(1, 0));
  const StateVector lifted =
      StateVector::from_pattern(mvl::Pattern::parse("1,V0"));
  EXPECT_LT(direct.distance_to(lifted), 1e-12);
}

TEST(StateVector, DistributionSumsToOne) {
  StateVector s(3);
  s.apply_1q(la::mat_h(), 0);
  s.apply_1q(la::mat_h(), 2);
  double total = 0.0;
  for (const double p : s.distribution()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(StateVector, SampleFollowsDistribution) {
  StateVector s = StateVector::basis(2, 0b10);
  s.apply_gate(Gate::ctrl_v(1, 0));
  Rng rng(17);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += (s.sample(rng) & 1u);
  EXPECT_NEAR(ones / static_cast<double>(n), 0.5, 0.02);
}

TEST(StateVector, MeasureAllCollapses) {
  StateVector s = StateVector::basis(2, 0b10);
  s.apply_gate(Gate::ctrl_v(1, 0));
  Rng rng(3);
  const std::uint32_t outcome = s.measure_all(rng);
  EXPECT_NEAR(s.probability_of(outcome), 1.0, 1e-12);
}

TEST(StateVector, SelfControlledGateThrowsInsteadOfGarbage) {
  // Regression: control == target must be rejected loudly. The pair loop in
  // apply_controlled_1q would otherwise pair amplitudes with themselves and
  // silently corrupt the state.
  StateVector s = StateVector::basis(3, 0b101);
  EXPECT_THROW(s.apply_controlled_1q(la::mat_v(), 1, 1), qsyn::LogicError);
  EXPECT_THROW(s.apply_controlled_1q(la::mat_x(), 0, 0), qsyn::LogicError);
  // The failed call must not have touched the state.
  EXPECT_NEAR(s.probability_of(0b101), 1.0, 1e-12);
}

TEST(StateVector, ApplyUnitaryChecksDimensions) {
  StateVector s(2);
  EXPECT_THROW(s.apply_unitary(la::mat_x()), qsyn::LogicError);  // 2x2 vs dim 4
  s.apply_unitary(la::Matrix::identity(4));
  EXPECT_NEAR(s.probability_of(0), 1.0, 1e-12);
}

TEST(StateVector, EqualUpToPhase) {
  StateVector a = StateVector::basis(2, 1);
  StateVector b = StateVector::basis(2, 1);
  b.apply_1q(la::mat_z(), 1);  // |01> picks up a -1 phase
  EXPECT_TRUE(a.equal_up_to_phase(b));
}

// --- unitaries ---------------------------------------------------------------

TEST(Unitary, GateUnitaryIsUnitary) {
  for (const Gate& g : {Gate::ctrl_v(1, 0), Gate::ctrl_v_dagger(0, 2),
                        Gate::feynman(2, 1), Gate::not_gate(1)}) {
    EXPECT_TRUE(gate_unitary(g, 3).is_unitary()) << g.name();
  }
}

TEST(Unitary, CnotMatrixIsPermutation) {
  const la::Matrix u = gate_unitary(Gate::feynman(1, 0), 2);
  EXPECT_TRUE(u.is_permutation());
  // FBA on 2 wires: |10> <-> |11>.
  EXPECT_EQ(u.extract_permutation(), (std::vector<std::size_t>{0, 1, 3, 2}));
}

TEST(Unitary, ControlledVMatrixBlocks) {
  const la::Matrix u = gate_unitary(Gate::ctrl_v(1, 0), 2);
  // Upper-left block: identity (control = 0); lower-right: V.
  EXPECT_TRUE(u.block(0, 0, 2, 2).is_identity());
  EXPECT_TRUE(u.block(2, 2, 2, 2).approx_equal(la::mat_v()));
  EXPECT_NEAR(u.block(0, 2, 2, 2).frobenius_norm(), 0.0, 1e-12);
}

TEST(Unitary, CascadeUnitaryEqualsProductOfGateUnitaries) {
  const Cascade c = synth::peres_cascade_fig4();
  la::Matrix product = la::Matrix::identity(8);
  for (const Gate& g : c.sequence()) {
    product = gate_unitary(g, 3) * product;  // later gates multiply on left
  }
  EXPECT_TRUE(cascade_unitary(c).approx_equal(product));
}

TEST(Unitary, PeresCascadeIsExactPermutationMatrix) {
  const Cascade c = synth::peres_cascade_fig4();
  EXPECT_TRUE(is_permutative(c));
  EXPECT_EQ(extract_classical_permutation(c), synth::peres_perm());
}

TEST(Unitary, AllToffoliFig9CascadesAreExactlyToffoli) {
  for (const Cascade& c : synth::toffoli_cascades_fig9()) {
    EXPECT_TRUE(realizes_permutation(c, synth::toffoli_perm()))
        << c.to_string();
  }
}

TEST(Unitary, TruncatedVCascadeIsNotPermutative) {
  EXPECT_FALSE(is_permutative(Cascade::parse("VBA", 3)));
  EXPECT_THROW((void)extract_classical_permutation(Cascade::parse("VBA", 3)),
               qsyn::LogicError);
}

TEST(Unitary, PermutationUnitaryRoundTrip) {
  const auto p = synth::peres_perm();
  const la::Matrix u = permutation_unitary(p, 3);
  EXPECT_TRUE(u.is_permutation());
  // Column j maps to row p(j+1)-1.
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(
        std::abs(u(p.apply(static_cast<std::uint32_t>(j + 1)) - 1, j) -
                 la::Complex(1.0, 0.0)),
        0.0, 1e-12);
  }
}

// --- cross-validation --------------------------------------------------------

TEST(CrossCheck, PaperCircuitsMatchMvModel) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  EXPECT_TRUE(mv_model_matches_hilbert(synth::peres_cascade_fig4(), domain));
  EXPECT_TRUE(mv_model_matches_hilbert(synth::peres_cascade_fig8(), domain));
  EXPECT_TRUE(mv_model_matches_hilbert(synth::g2_cascade_fig5(), domain));
  EXPECT_TRUE(mv_model_matches_hilbert(synth::g3_cascade_fig6(), domain));
  EXPECT_TRUE(mv_model_matches_hilbert(synth::g4_cascade_fig7(), domain));
  for (const Cascade& c : synth::toffoli_cascades_fig9()) {
    EXPECT_TRUE(mv_model_matches_hilbert(c, domain)) << c.to_string();
  }
}

TEST(CrossCheck, SingleGatesMatchMvModel) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  for (std::size_t i = 0; i < library.size(); ++i) {
    Cascade c(3);
    c.append(library.gate(i));
    EXPECT_TRUE(mv_model_matches_hilbert(c, domain))
        << library.gate(i).name();
  }
}

TEST(CrossCheck, UnreasonableCascadeCanViolateMvModel) {
  // VBA then VAB uses a mixed control: the don't-care MV semantics no longer
  // agree with Hilbert space — exactly why the banned sets exist.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const Cascade c = Cascade::parse("VBA*VAB", 3);
  ASSERT_FALSE(c.is_reasonable(domain));
  EXPECT_FALSE(mv_model_matches_hilbert(c, domain));
}

}  // namespace
}  // namespace qsyn::sim
