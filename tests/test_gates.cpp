// Unit tests for qsyn/gates: gate semantics, the 18-gate 3-qubit library,
// and the paper's printed permutation representations (Section 3).
#include <gtest/gtest.h>

#include "common/error.h"
#include "gates/gate.h"
#include "gates/library.h"
#include "mvl/domain.h"

namespace qsyn::gates {
namespace {

using mvl::Pattern;
using mvl::PatternDomain;
using mvl::Quat;

// --- construction, naming, parsing -------------------------------------------

TEST(Gate, FactoryAndAccessors) {
  const Gate v = Gate::ctrl_v(1, 0);
  EXPECT_EQ(v.kind(), GateKind::kCtrlV);
  EXPECT_EQ(v.target(), 1u);
  EXPECT_EQ(v.control(), 0u);
  EXPECT_TRUE(v.has_control());
  const Gate n = Gate::not_gate(2);
  EXPECT_FALSE(n.has_control());
  EXPECT_THROW((void)n.control(), qsyn::LogicError);
}

TEST(Gate, SameWireRejected) {
  EXPECT_THROW(Gate::ctrl_v(1, 1), qsyn::LogicError);
  EXPECT_THROW(Gate::feynman(0, 0), qsyn::LogicError);
}

TEST(Gate, PaperNames) {
  EXPECT_EQ(Gate::ctrl_v(1, 0).name(), "VBA");
  EXPECT_EQ(Gate::ctrl_v_dagger(0, 1).name(), "V+AB");
  EXPECT_EQ(Gate::feynman(2, 0).name(), "FCA");
  EXPECT_EQ(Gate::not_gate(0).name(), "NA");
}

TEST(Gate, ParseRoundTrip) {
  for (const char* name : {"VBA", "VAB", "V+CA", "V+BC", "FCA", "FAB", "NA",
                           "NC"}) {
    EXPECT_EQ(Gate::parse(name).name(), name) << name;
  }
}

TEST(Gate, ParseAcceptsPaperFeynmanSpelling) {
  // The paper writes "FeCA" for the Feynman gate in one place.
  EXPECT_EQ(Gate::parse("FeCA"), Gate::feynman(2, 0));
}

TEST(Gate, ParseErrors) {
  EXPECT_THROW(Gate::parse(""), qsyn::ParseError);
  EXPECT_THROW(Gate::parse("X"), qsyn::ParseError);
  EXPECT_THROW(Gate::parse("VAA"), qsyn::ParseError);
  EXPECT_THROW(Gate::parse("QAB"), qsyn::ParseError);
  EXPECT_THROW(Gate::parse("VABC"), qsyn::ParseError);
  EXPECT_THROW(Gate::parse("V1B"), qsyn::ParseError);
}

TEST(Gate, AdjointSwapsVAndVDagger) {
  EXPECT_EQ(Gate::ctrl_v(1, 0).adjoint(), Gate::ctrl_v_dagger(1, 0));
  EXPECT_EQ(Gate::ctrl_v_dagger(2, 1).adjoint(), Gate::ctrl_v(2, 1));
  EXPECT_EQ(Gate::feynman(0, 1).adjoint(), Gate::feynman(0, 1));
  EXPECT_EQ(Gate::not_gate(1).adjoint(), Gate::not_gate(1));
}

TEST(Gate, WireLetters) {
  EXPECT_EQ(wire_letter(0), 'A');
  EXPECT_EQ(wire_letter(2), 'C');
  EXPECT_EQ(wire_from_letter('B'), 1u);
  EXPECT_EQ(wire_from_letter('b'), 1u);
  EXPECT_THROW((void)wire_from_letter('1'), qsyn::ParseError);
}

// --- multi-valued semantics --------------------------------------------------

TEST(GateApply, CtrlVFiresOnlyOnControlOne) {
  const Gate v = Gate::ctrl_v(1, 0);  // VBA
  EXPECT_EQ(v.apply(Pattern::parse("1,0,0")), Pattern::parse("1,V0,0"));
  EXPECT_EQ(v.apply(Pattern::parse("1,1,0")), Pattern::parse("1,V1,0"));
  EXPECT_EQ(v.apply(Pattern::parse("1,V0,0")), Pattern::parse("1,1,0"));
  EXPECT_EQ(v.apply(Pattern::parse("1,V1,0")), Pattern::parse("1,0,0"));
  EXPECT_EQ(v.apply(Pattern::parse("0,1,0")), Pattern::parse("0,1,0"));
  // Mixed control: the paper's don't-care closure keeps the pattern.
  EXPECT_EQ(v.apply(Pattern::parse("V0,1,0")), Pattern::parse("V0,1,0"));
  EXPECT_EQ(v.apply(Pattern::parse("V1,V0,1")), Pattern::parse("V1,V0,1"));
}

TEST(GateApply, CtrlVDaggerValueMap) {
  const Gate vd = Gate::ctrl_v_dagger(0, 1);  // V+AB
  EXPECT_EQ(vd.apply(Pattern::parse("0,1,0")), Pattern::parse("V1,1,0"));
  EXPECT_EQ(vd.apply(Pattern::parse("1,1,0")), Pattern::parse("V0,1,0"));
  EXPECT_EQ(vd.apply(Pattern::parse("V1,1,0")), Pattern::parse("1,1,0"));
  EXPECT_EQ(vd.apply(Pattern::parse("V0,1,0")), Pattern::parse("0,1,0"));
}

TEST(GateApply, FeynmanXorsOnlyBinary) {
  const Gate f = Gate::feynman(2, 0);  // FCA: C ^= A
  EXPECT_EQ(f.apply(Pattern::parse("1,0,0")), Pattern::parse("1,0,1"));
  EXPECT_EQ(f.apply(Pattern::parse("1,0,1")), Pattern::parse("1,0,0"));
  EXPECT_EQ(f.apply(Pattern::parse("0,0,1")), Pattern::parse("0,0,1"));
  // Mixed operand: unchanged.
  EXPECT_EQ(f.apply(Pattern::parse("V0,0,1")), Pattern::parse("V0,0,1"));
  EXPECT_EQ(f.apply(Pattern::parse("1,0,V1")), Pattern::parse("1,0,V1"));
  // Bystander wire B mixed does not block FCA.
  EXPECT_EQ(f.apply(Pattern::parse("1,V0,0")), Pattern::parse("1,V0,1"));
}

TEST(GateApply, NotFlipsAllValues) {
  const Gate n = Gate::not_gate(1);
  EXPECT_EQ(n.apply(Pattern::parse("0,0,0")), Pattern::parse("0,1,0"));
  EXPECT_EQ(n.apply(Pattern::parse("0,V0,0")), Pattern::parse("0,V1,0"));
}

TEST(GateApply, WireBoundsChecked) {
  const Gate v = Gate::ctrl_v(2, 0);
  EXPECT_THROW((void)v.apply(Pattern::parse("1,0")), qsyn::LogicError);
}

// --- the paper's permutation representations ---------------------------------

class Library3 : public ::testing::Test {
 protected:
  const PatternDomain domain_ = PatternDomain::reduced(3);
  const GateLibrary library_{domain_};
};

TEST_F(Library3, HasEighteenGates) {
  EXPECT_EQ(library_.size(), 18u);
  EXPECT_EQ(library_.controlled_indices().size(), 12u);
  EXPECT_EQ(library_.feynman_indices().size(), 6u);
}

TEST_F(Library3, PaperCycleVBA) {
  const auto idx = library_.index_of("VBA");
  EXPECT_EQ(library_.permutation(idx).to_cycle_string(),
            "(5,17,7,21)(6,18,8,22)(13,19,15,23)(14,20,16,24)");
}

TEST_F(Library3, PaperCycleVdagAB) {
  const auto idx = library_.index_of("V+AB");
  EXPECT_EQ(library_.permutation(idx).to_cycle_string(),
            "(3,33,7,26)(4,34,8,27)(9,35,15,28)(10,36,16,29)");
}

TEST_F(Library3, PaperCycleFCA) {
  const auto idx = library_.index_of("FCA");
  EXPECT_EQ(library_.permutation(idx).to_cycle_string(),
            "(5,6)(7,8)(17,18)(21,22)");
}

TEST_F(Library3, AllGatePermsAreValidAndNontrivial) {
  for (std::size_t i = 0; i < library_.size(); ++i) {
    const auto& p = library_.permutation(i);
    EXPECT_EQ(p.degree(), 38u);
    EXPECT_FALSE(p.is_identity()) << library_.gate(i).name();
  }
}

TEST_F(Library3, ControlledGateOrderIsFour) {
  // V applied twice = NOT on the controlled subspace; four times = identity.
  for (const std::size_t i : library_.controlled_indices()) {
    EXPECT_EQ(library_.permutation(i).order(), 4u)
        << library_.gate(i).name();
  }
}

TEST_F(Library3, FeynmanGatesAreInvolutions) {
  for (const std::size_t i : library_.feynman_indices()) {
    EXPECT_EQ(library_.permutation(i).order(), 2u)
        << library_.gate(i).name();
  }
}

TEST_F(Library3, AdjointIndexInvertsPermutation) {
  for (std::size_t i = 0; i < library_.size(); ++i) {
    const std::size_t j = library_.adjoint_index(i);
    EXPECT_TRUE(
        (library_.permutation(i) * library_.permutation(j)).is_identity());
  }
}

TEST_F(Library3, BannedClassGrouping) {
  // The paper's L_A = {VBA, VCA, V+BA, V+CA}: control wire A.
  const auto la = library_.control_subset(0);
  EXPECT_EQ(la.size(), 4u);
  for (const std::size_t i : la) {
    EXPECT_EQ(library_.banned_class_of(i), domain_.control_class(0));
  }
  const auto lab = library_.feynman_subset(0, 1);
  EXPECT_EQ(lab.size(), 2u);
  for (const std::size_t i : lab) {
    EXPECT_EQ(library_.banned_class_of(i), domain_.feynman_class(0, 1));
  }
}

TEST_F(Library3, IndexOfUnknownThrows) {
  // NOT gates are not part of L; "VXY" parses (X, Y are valid wire letters)
  // but names a gate outside the 3-wire library; "V1B" cannot even parse.
  EXPECT_THROW((void)library_.index_of("NA"), qsyn::LogicError);
  EXPECT_THROW((void)library_.index_of("VXY"), qsyn::LogicError);
  EXPECT_THROW((void)library_.index_of("V1B"), qsyn::ParseError);
}

TEST_F(Library3, GatePermsFixLabelOne) {
  // The all-zero pattern contains no 1, so no library gate moves it.
  for (std::size_t i = 0; i < library_.size(); ++i) {
    EXPECT_EQ(library_.permutation(i).apply(1), 1u);
  }
}

TEST_F(Library3, VGatesStabilizeSOnlyPartially) {
  // V gates map some binary patterns to mixed ones (not binary-preserving).
  const auto& vba = library_.permutation(library_.index_of("VBA"));
  EXPECT_FALSE(vba.stabilizes_set({1, 2, 3, 4, 5, 6, 7, 8}));
  const auto& fca = library_.permutation(library_.index_of("FCA"));
  EXPECT_TRUE(fca.stabilizes_set({1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Library, TwoWireLibraryHasSixGates) {
  const PatternDomain d2 = mvl::PatternDomain::reduced(2);
  const GateLibrary lib2(d2);
  EXPECT_EQ(lib2.size(), 6u);  // VAB, VBA, V+AB, V+BA, FAB, FBA
}

TEST(Library, CostModels) {
  const CostModel unit = CostModel::unit();
  EXPECT_EQ(Gate::ctrl_v(1, 0).cost(unit), 1u);
  EXPECT_EQ(Gate::feynman(1, 0).cost(unit), 1u);
  EXPECT_EQ(Gate::not_gate(0).cost(unit), 0u);
  const CostModel nmr = CostModel::nmr_like();
  EXPECT_GT(Gate::ctrl_v(1, 0).cost(nmr), Gate::feynman(1, 0).cost(nmr));
}

}  // namespace
}  // namespace qsyn::gates
