// Unit tests for qsyn/gates: cascades, the reasonable-product predicate,
// truth tables (the paper's Table 1), and the Figures 4-9 circuit formulas.
#include <gtest/gtest.h>

#include "common/error.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "gates/truth_table.h"
#include "mvl/domain.h"
#include "synth/specs.h"

namespace qsyn::gates {
namespace {

using mvl::Pattern;
using mvl::PatternDomain;

TEST(Cascade, EmptyIsIdentity) {
  const Cascade c(3);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.to_string(), "()");
  EXPECT_EQ(c.apply(Pattern::parse("1,V0,0")), Pattern::parse("1,V0,0"));
  EXPECT_TRUE(c.to_binary_permutation().is_identity());
  EXPECT_EQ(c.cost(), 0u);
}

TEST(Cascade, ParsePrintRoundTrip) {
  const std::string text = "VCB*FBA*VCA*V+CB";
  EXPECT_EQ(Cascade::parse(text).to_string(), text);
  EXPECT_EQ(Cascade::parse(text).size(), 4u);
  EXPECT_EQ(Cascade::parse(text).wires(), 3u);
}

TEST(Cascade, ParseInfersWireCount) {
  EXPECT_EQ(Cascade::parse("FBA").wires(), 2u);
  EXPECT_EQ(Cascade::parse("FBA*VCA").wires(), 3u);
  EXPECT_EQ(Cascade::parse("FBA", 4).wires(), 4u);
  EXPECT_THROW(Cascade::parse("VCA", 2), qsyn::ParseError);
  EXPECT_THROW(Cascade::parse("VBA**FBA"), qsyn::ParseError);
}

TEST(Cascade, AppendChecksWires) {
  Cascade c(2);
  EXPECT_NO_THROW(c.append(Gate::feynman(0, 1)));
  EXPECT_THROW(c.append(Gate::feynman(2, 0)), qsyn::LogicError);
}

TEST(Cascade, CostModels) {
  const Cascade c = Cascade::parse("VCB*FBA*VCA*V+CB");
  EXPECT_EQ(c.cost(), 4u);
  const CostModel nmr = CostModel::nmr_like();
  EXPECT_EQ(c.cost(nmr), 3u + 2u + 3u + 3u);
}

TEST(Cascade, PeresFormulaOnAllBinaryInputs) {
  // Figure 4: P = A, Q = B^A, R = C^AB.
  const Cascade peres = synth::peres_cascade_fig4();
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    const std::uint32_t a = bits >> 2 & 1, b = bits >> 1 & 1, c = bits & 1;
    const Pattern out = peres.apply(Pattern::from_binary(3, bits));
    ASSERT_TRUE(out.is_binary());
    EXPECT_EQ(out.binary_value(),
              (a << 2 | (b ^ a) << 1 | (c ^ (a & b))));
  }
}

TEST(Cascade, G2FormulaOnAllBinaryInputs) {
  // Figure 5: P = A, Q = B^AC', R = C^A.
  const Cascade g2 = synth::g2_cascade_fig5();
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    const std::uint32_t a = bits >> 2 & 1, b = bits >> 1 & 1, c = bits & 1;
    const Pattern out = g2.apply(Pattern::from_binary(3, bits));
    ASSERT_TRUE(out.is_binary());
    EXPECT_EQ(out.binary_value(),
              (a << 2 | (b ^ (a & (c ^ 1u))) << 1 | (c ^ a)));
  }
}

TEST(Cascade, G3FormulaOnAllBinaryInputs) {
  // Figure 6: P = A, Q = B^A, R = C^A'B.
  const Cascade g3 = synth::g3_cascade_fig6();
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    const std::uint32_t a = bits >> 2 & 1, b = bits >> 1 & 1, c = bits & 1;
    const Pattern out = g3.apply(Pattern::from_binary(3, bits));
    ASSERT_TRUE(out.is_binary());
    EXPECT_EQ(out.binary_value(),
              (a << 2 | (b ^ a) << 1 | (c ^ ((a ^ 1u) & b))));
  }
}

TEST(Cascade, G4FormulaOnAllBinaryInputs) {
  // Figure 7: P = A, Q = B^A, R = C'^A'B'.
  const Cascade g4 = synth::g4_cascade_fig7();
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    const std::uint32_t a = bits >> 2 & 1, b = bits >> 1 & 1, c = bits & 1;
    const Pattern out = g4.apply(Pattern::from_binary(3, bits));
    ASSERT_TRUE(out.is_binary());
    EXPECT_EQ(out.binary_value(),
              (a << 2 | (b ^ a) << 1 | ((c ^ 1u) ^ ((a ^ 1u) & (b ^ 1u)))));
  }
}

TEST(Cascade, PaperPermutationsOfFigures) {
  // The binary permutations printed in Section 5.
  EXPECT_EQ(synth::peres_cascade_fig4().to_binary_permutation(),
            synth::peres_perm());
  EXPECT_EQ(synth::peres_cascade_fig8().to_binary_permutation(),
            synth::peres_perm());
  EXPECT_EQ(synth::g2_cascade_fig5().to_binary_permutation(),
            synth::g2_perm());
  EXPECT_EQ(synth::g3_cascade_fig6().to_binary_permutation(),
            synth::g3_perm());
  EXPECT_EQ(synth::g4_cascade_fig7().to_binary_permutation(),
            synth::g4_perm());
}

TEST(Cascade, AllFourToffoliImplementationsRealizeToffoli) {
  for (const Cascade& c : synth::toffoli_cascades_fig9()) {
    EXPECT_EQ(c.to_binary_permutation(), synth::toffoli_perm())
        << c.to_string();
    EXPECT_EQ(c.cost(), 5u);
  }
}

TEST(Cascade, Fig9PairsAreHermitianAdjoints) {
  const auto figs = synth::toffoli_cascades_fig9();
  EXPECT_EQ(figs[0].adjoint().to_string(),
            "V+CB*V+CA*FBA*VCB*FBA");  // reversal of (b)'s gates
  // More structurally: adjoint of each realizes Toffoli too (self-inverse).
  for (const Cascade& c : figs) {
    EXPECT_EQ(c.adjoint().to_binary_permutation(), synth::toffoli_perm());
  }
}

TEST(Cascade, ToBinaryPermutationRejectsMixedOutputs) {
  const Cascade c = Cascade::parse("VBA", 3);
  EXPECT_FALSE(c.is_binary_preserving());
  EXPECT_THROW((void)c.to_binary_permutation(), qsyn::LogicError);
}

TEST(Cascade, AdjointInvertsDomainPermutation) {
  const PatternDomain domain = PatternDomain::reduced(3);
  const Cascade c = synth::peres_cascade_fig4();
  const auto p = c.to_permutation(domain);
  const auto q = c.adjoint().to_permutation(domain);
  EXPECT_TRUE((p * q).is_identity());
}

TEST(Cascade, ReasonablePredicateAcceptsPaperCircuits) {
  const PatternDomain domain = PatternDomain::reduced(3);
  EXPECT_TRUE(synth::peres_cascade_fig4().is_reasonable(domain));
  EXPECT_TRUE(synth::g2_cascade_fig5().is_reasonable(domain));
  for (const Cascade& c : synth::toffoli_cascades_fig9()) {
    EXPECT_TRUE(c.is_reasonable(domain));
  }
}

TEST(Cascade, ReasonableRejectsMixedControl) {
  const PatternDomain domain = PatternDomain::reduced(3);
  // VBA makes B mixed on inputs with A=1; a gate controlled by B must not
  // follow ("VAB" has control B), nor may a Feynman touching B.
  EXPECT_FALSE(Cascade::parse("VBA*VAB", 3).is_reasonable(domain));
  EXPECT_FALSE(Cascade::parse("VBA*FBA", 3).is_reasonable(domain));
  EXPECT_FALSE(Cascade::parse("VBA*FCB", 3).is_reasonable(domain));
  // Gates avoiding B are fine.
  EXPECT_TRUE(Cascade::parse("VBA*VCA", 3).is_reasonable(domain));
  EXPECT_TRUE(Cascade::parse("VBA*FCA", 3).is_reasonable(domain));
}

TEST(Cascade, VSquaredActsAsCnotOnBinaryInputs) {
  const Cascade c = Cascade::parse("VBA*VBA", 3);
  EXPECT_TRUE(c.is_binary_preserving());
  Cascade f(3);
  f.append(Gate::feynman(1, 0));
  EXPECT_EQ(c.to_binary_permutation(), f.to_binary_permutation());
}

TEST(Cascade, DiagramHasOneRowPerWireAndGateBoxes) {
  const std::string d = synth::peres_cascade_fig4().to_diagram();
  EXPECT_NE(d.find("A -"), std::string::npos);
  EXPECT_NE(d.find("C -"), std::string::npos);
  EXPECT_NE(d.find("[V ]"), std::string::npos);
  EXPECT_NE(d.find("[V+]"), std::string::npos);
  EXPECT_NE(d.find("(+)"), std::string::npos);
  EXPECT_EQ(std::count(d.begin(), d.end(), '\n'), 2);
}

// --- Table 1 -----------------------------------------------------------------

TEST(TruthTable, Table1PermutationIs3748) {
  // The 2-qubit controlled-V gate's truth table: permutation (3,7,4,8).
  const PatternDomain full2 = PatternDomain::full(2);
  const TruthTable t = make_truth_table(Gate::ctrl_v(1, 0), full2);
  EXPECT_EQ(t.to_permutation().to_cycle_string(), "(3,7,4,8)");
}

TEST(TruthTable, Table1RowSpotChecks) {
  const PatternDomain full2 = PatternDomain::full(2);
  const TruthTable t = make_truth_table(Gate::ctrl_v(1, 0), full2);
  ASSERT_EQ(t.rows.size(), 16u);
  // Row 3: input (1,0) -> output (1,V0) = label 7.
  EXPECT_EQ(t.rows[2].input, Pattern::parse("1,0"));
  EXPECT_EQ(t.rows[2].output, Pattern::parse("1,V0"));
  EXPECT_EQ(t.rows[2].output_label, 7u);
  // Row 7: input (1,V0) -> output (1,1) = label 4.
  EXPECT_EQ(t.rows[6].input, Pattern::parse("1,V0"));
  EXPECT_EQ(t.rows[6].output_label, 4u);
  // Row 8: input (1,V1) -> output (1,0) = label 3.
  EXPECT_EQ(t.rows[7].output_label, 3u);
  // Don't-care rows keep their inputs.
  for (std::size_t i = 8; i < 16; ++i) {
    EXPECT_EQ(t.rows[i].input, t.rows[i].output);
  }
}

TEST(TruthTable, RendersAllLabels) {
  const PatternDomain full2 = PatternDomain::full(2);
  const TruthTable t = make_truth_table(Gate::ctrl_v(1, 0), full2);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("V0"), std::string::npos);
  EXPECT_NE(text.find("16"), std::string::npos);
  EXPECT_NE(text.find(" A"), std::string::npos);
  EXPECT_NE(text.find(" Q"), std::string::npos);
}

TEST(TruthTable, CascadeTableMatchesPermProduct) {
  const PatternDomain domain = PatternDomain::reduced(3);
  const Cascade c = synth::peres_cascade_fig4();
  const TruthTable t = make_truth_table(c, domain);
  EXPECT_EQ(t.to_permutation(), c.to_permutation(domain));
}

}  // namespace
}  // namespace qsyn::gates
