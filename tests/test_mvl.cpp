// Unit tests for qsyn/mvl: the quaternary value algebra, packed patterns, and
// the pattern domains — including exact reproductions of the paper's label
// ordering and banned sets N_A .. N_BC.
#include <gtest/gtest.h>

#include "common/error.h"
#include "mvl/domain.h"
#include "mvl/pattern.h"
#include "mvl/quat.h"

namespace qsyn::mvl {
namespace {

// --- Quat algebra ------------------------------------------------------------

TEST(Quat, VValueMap) {
  EXPECT_EQ(apply_v(Quat::kZero), Quat::kV0);
  EXPECT_EQ(apply_v(Quat::kOne), Quat::kV1);
  EXPECT_EQ(apply_v(Quat::kV0), Quat::kOne);
  EXPECT_EQ(apply_v(Quat::kV1), Quat::kZero);
}

TEST(Quat, VDaggerValueMap) {
  EXPECT_EQ(apply_v_dagger(Quat::kZero), Quat::kV1);
  EXPECT_EQ(apply_v_dagger(Quat::kOne), Quat::kV0);
  EXPECT_EQ(apply_v_dagger(Quat::kV0), Quat::kZero);
  EXPECT_EQ(apply_v_dagger(Quat::kV1), Quat::kOne);
}

TEST(Quat, VVIsNot) {
  for (int d = 0; d < 4; ++d) {
    const Quat q = quat_from_index(d);
    EXPECT_EQ(apply_v(apply_v(q)), apply_not(q));
    EXPECT_EQ(apply_v_dagger(apply_v_dagger(q)), apply_not(q));
  }
}

TEST(Quat, VDaggerInvertsV) {
  for (int d = 0; d < 4; ++d) {
    const Quat q = quat_from_index(d);
    EXPECT_EQ(apply_v_dagger(apply_v(q)), q);
    EXPECT_EQ(apply_v(apply_v_dagger(q)), q);
  }
}

TEST(Quat, NotIsInvolution) {
  for (int d = 0; d < 4; ++d) {
    const Quat q = quat_from_index(d);
    EXPECT_EQ(apply_not(apply_not(q)), q);
  }
}

TEST(Quat, BinaryPredicates) {
  EXPECT_TRUE(is_binary(Quat::kZero));
  EXPECT_TRUE(is_binary(Quat::kOne));
  EXPECT_FALSE(is_binary(Quat::kV0));
  EXPECT_TRUE(is_mixed(Quat::kV1));
}

TEST(Quat, BinaryXor) {
  EXPECT_EQ(binary_xor(Quat::kZero, Quat::kOne), Quat::kOne);
  EXPECT_EQ(binary_xor(Quat::kOne, Quat::kOne), Quat::kZero);
  EXPECT_THROW((void)binary_xor(Quat::kV0, Quat::kOne), qsyn::LogicError);
}

TEST(Quat, StringRoundTrip) {
  for (int d = 0; d < 4; ++d) {
    const Quat q = quat_from_index(d);
    EXPECT_EQ(quat_from_string(to_string(q)), q);
  }
  EXPECT_THROW((void)quat_from_string("2"), qsyn::ParseError);
}

TEST(Quat, MeasurementProbabilities) {
  EXPECT_DOUBLE_EQ(measure_one_probability(Quat::kZero), 0.0);
  EXPECT_DOUBLE_EQ(measure_one_probability(Quat::kOne), 1.0);
  EXPECT_DOUBLE_EQ(measure_one_probability(Quat::kV0), 0.5);
  EXPECT_DOUBLE_EQ(measure_one_probability(Quat::kV1), 0.5);
}

TEST(Quat, IndexRoundTripAndRange) {
  for (int d = 0; d < 4; ++d) EXPECT_EQ(quat_index(quat_from_index(d)), d);
  EXPECT_THROW((void)quat_from_index(4), qsyn::LogicError);
  EXPECT_THROW((void)quat_from_index(-1), qsyn::LogicError);
}

// --- Pattern -----------------------------------------------------------------

TEST(Pattern, GetSetRoundTrip) {
  Pattern p(3);
  p.set(0, Quat::kOne);
  p.set(1, Quat::kV0);
  p.set(2, Quat::kV1);
  EXPECT_EQ(p.get(0), Quat::kOne);
  EXPECT_EQ(p.get(1), Quat::kV0);
  EXPECT_EQ(p.get(2), Quat::kV1);
}

TEST(Pattern, CodeIsBase4WithWire0MostSignificant) {
  Pattern p(3);
  p.set(0, Quat::kOne);   // 1 * 16
  p.set(1, Quat::kV0);    // 2 * 4
  p.set(2, Quat::kZero);  // 0
  EXPECT_EQ(p.code(), 24u);
  EXPECT_EQ(Pattern::from_code(3, 24), p);
}

TEST(Pattern, FromBinary) {
  const Pattern p = Pattern::from_binary(3, 0b101);
  EXPECT_EQ(p.get(0), Quat::kOne);
  EXPECT_EQ(p.get(1), Quat::kZero);
  EXPECT_EQ(p.get(2), Quat::kOne);
  EXPECT_EQ(p.binary_value(), 5u);
  EXPECT_THROW(Pattern::from_binary(3, 8), qsyn::LogicError);
}

TEST(Pattern, BinaryValueRejectsMixed) {
  Pattern p(2);
  p.set(0, Quat::kV0);
  EXPECT_THROW((void)p.binary_value(), qsyn::LogicError);
}

TEST(Pattern, Predicates) {
  const Pattern binary = Pattern::from_binary(3, 0b010);
  EXPECT_TRUE(binary.is_binary());
  EXPECT_TRUE(binary.contains_one());
  EXPECT_FALSE(binary.contains_mixed());

  Pattern mixed_no_one(3);
  mixed_no_one.set(1, Quat::kV1);
  EXPECT_FALSE(mixed_no_one.is_binary());
  EXPECT_FALSE(mixed_no_one.contains_one());
  EXPECT_TRUE(mixed_no_one.contains_mixed());

  const Pattern zero(3);
  EXPECT_TRUE(zero.is_binary());
  EXPECT_FALSE(zero.contains_one());
}

TEST(Pattern, ParseAndToString) {
  const Pattern p = Pattern::parse("1,V0,0");
  EXPECT_EQ(p.wires(), 3u);
  EXPECT_EQ(p.get(1), Quat::kV0);
  EXPECT_EQ(p.to_string(), "1,V0,0");
  EXPECT_EQ(Pattern::parse("1 V0 0"), p);
  EXPECT_THROW(Pattern::parse(""), qsyn::LogicError);
}

TEST(Pattern, OrderingByCode) {
  EXPECT_LT(Pattern::from_binary(3, 0), Pattern::from_binary(3, 1));
  EXPECT_LT(Pattern::from_binary(3, 7), Pattern::parse("1,V0,0"));
}

TEST(Pattern, WireCountLimits) {
  EXPECT_THROW(Pattern(0), qsyn::LogicError);
  EXPECT_THROW(Pattern(17), qsyn::LogicError);
  EXPECT_NO_THROW(Pattern(16));
}

// --- Reduced 3-wire domain: the paper's 38 labels ----------------------------

class ReducedDomain3 : public ::testing::Test {
 protected:
  const PatternDomain domain_ = PatternDomain::reduced(3);
};

TEST_F(ReducedDomain3, SizeIs38) {
  // 64 - 27 (no value 1 anywhere) + 1 (all-zero kept) = 38.
  EXPECT_EQ(domain_.size(), 38u);
  EXPECT_EQ(domain_.binary_count(), 8u);
}

TEST_F(ReducedDomain3, BinaryLabelsComeFirstAscending) {
  for (std::uint32_t label = 1; label <= 8; ++label) {
    EXPECT_EQ(domain_.pattern(label), Pattern::from_binary(3, label - 1));
  }
}

TEST_F(ReducedDomain3, PaperLabelSpotChecks) {
  // Labels verified against the paper's printed cycles (Section 3).
  EXPECT_EQ(domain_.label_of(Pattern::parse("1,V0,0")), 17u);
  EXPECT_EQ(domain_.label_of(Pattern::parse("1,V1,0")), 21u);
  EXPECT_EQ(domain_.label_of(Pattern::parse("V1,1,0")), 33u);
  EXPECT_EQ(domain_.label_of(Pattern::parse("V0,1,0")), 26u);
  EXPECT_EQ(domain_.label_of(Pattern::parse("0,1,V0")), 9u);
  EXPECT_EQ(domain_.label_of(Pattern::parse("V1,V1,1")), 38u);
}

TEST_F(ReducedDomain3, MixedLabelsAscendByCode) {
  for (std::uint32_t label = 9; label < 38; ++label) {
    EXPECT_LT(domain_.pattern(label).code(), domain_.pattern(label + 1).code());
  }
}

TEST_F(ReducedDomain3, ExcludesPatternsWithoutOne) {
  Pattern no_one(3);
  no_one.set(0, Quat::kV0);
  EXPECT_FALSE(domain_.contains(no_one));
  EXPECT_THROW((void)domain_.label_of(no_one), qsyn::LogicError);
  // But the all-zero pattern is label 1.
  EXPECT_EQ(domain_.label_of(Pattern(3)), 1u);
}

TEST_F(ReducedDomain3, LabelPatternRoundTrip) {
  for (std::uint32_t label = 1; label <= domain_.size(); ++label) {
    EXPECT_EQ(domain_.label_of(domain_.pattern(label)), label);
  }
}

TEST_F(ReducedDomain3, SSetIsFirstEight) {
  const auto s = domain_.s_set();
  ASSERT_EQ(s.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(s[i], i + 1);
}

TEST_F(ReducedDomain3, PaperBannedSetNA) {
  const auto na = domain_.banned_set(domain_.control_class(0));
  const std::vector<std::uint32_t> expected = {25, 26, 27, 28, 29, 30, 31,
                                               32, 33, 34, 35, 36, 37, 38};
  EXPECT_EQ(na, expected);
}

TEST_F(ReducedDomain3, PaperBannedSetNB) {
  const auto nb = domain_.banned_set(domain_.control_class(1));
  const std::vector<std::uint32_t> expected = {11, 12, 17, 18, 19, 20, 21,
                                               22, 23, 24, 30, 31, 37, 38};
  EXPECT_EQ(nb, expected);
}

TEST_F(ReducedDomain3, PaperBannedSetNC) {
  const auto nc = domain_.banned_set(domain_.control_class(2));
  const std::vector<std::uint32_t> expected = {9,  10, 13, 14, 15, 16, 19,
                                               20, 23, 24, 28, 29, 35, 36};
  EXPECT_EQ(nc, expected);
}

TEST_F(ReducedDomain3, PaperBannedSetNAB) {
  const auto nab = domain_.banned_set(domain_.feynman_class(0, 1));
  const std::vector<std::uint32_t> expected = {
      11, 12, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
      27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38};
  EXPECT_EQ(nab, expected);
}

TEST_F(ReducedDomain3, PaperBannedSetNAC) {
  const auto nac = domain_.banned_set(domain_.feynman_class(0, 2));
  const std::vector<std::uint32_t> expected = {
      9,  10, 13, 14, 15, 16, 19, 20, 23, 24, 25, 26,
      27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38};
  EXPECT_EQ(nac, expected);
}

TEST_F(ReducedDomain3, PaperBannedSetNBC) {
  const auto nbc = domain_.banned_set(domain_.feynman_class(1, 2));
  const std::vector<std::uint32_t> expected = {
      9,  10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
      21, 22, 23, 24, 28, 29, 30, 31, 35, 36, 37, 38};
  EXPECT_EQ(nbc, expected);
}

TEST_F(ReducedDomain3, BannedMaskConsistentWithSets) {
  for (BannedClass c = 0; c < domain_.num_classes(); ++c) {
    for (const std::uint32_t label : domain_.banned_set(c)) {
      EXPECT_NE(domain_.banned_mask(label) & (1u << c), 0u);
    }
  }
}

TEST_F(ReducedDomain3, ClassNames) {
  EXPECT_EQ(domain_.class_name(domain_.control_class(0)), "N_A");
  EXPECT_EQ(domain_.class_name(domain_.control_class(2)), "N_C");
  EXPECT_EQ(domain_.class_name(domain_.feynman_class(0, 1)), "N_AB");
  EXPECT_EQ(domain_.class_name(domain_.feynman_class(2, 1)), "N_BC");
  EXPECT_EQ(domain_.num_classes(), 6u);
}

TEST_F(ReducedDomain3, FeynmanClassIsSymmetric) {
  EXPECT_EQ(domain_.feynman_class(0, 2), domain_.feynman_class(2, 0));
  EXPECT_THROW((void)domain_.feynman_class(1, 1), qsyn::LogicError);
}

// --- Full domains ------------------------------------------------------------

TEST(FullDomain2, Table1Ordering) {
  // The paper's Table 1 layout: 4 binary rows, then B-mixed, A-mixed, both.
  const PatternDomain d = PatternDomain::full(2);
  EXPECT_EQ(d.size(), 16u);
  EXPECT_EQ(d.pattern(1), Pattern::parse("0,0"));
  EXPECT_EQ(d.pattern(4), Pattern::parse("1,1"));
  EXPECT_EQ(d.pattern(5), Pattern::parse("0,V0"));
  EXPECT_EQ(d.pattern(6), Pattern::parse("0,V1"));
  EXPECT_EQ(d.pattern(7), Pattern::parse("1,V0"));
  EXPECT_EQ(d.pattern(8), Pattern::parse("1,V1"));
  EXPECT_EQ(d.pattern(9), Pattern::parse("V0,0"));
  EXPECT_EQ(d.pattern(12), Pattern::parse("V1,1"));
  EXPECT_EQ(d.pattern(13), Pattern::parse("V0,V0"));
  EXPECT_EQ(d.pattern(16), Pattern::parse("V1,V1"));
}

TEST(FullDomain2, ContainsEverything) {
  const PatternDomain d = PatternDomain::full(2);
  for (std::uint32_t code = 0; code < 16; ++code) {
    EXPECT_TRUE(d.contains(Pattern::from_code(2, code)));
  }
}

TEST(ReducedDomain2, SizeIsEight) {
  // 16 - 9 + 1 = 8 permutable patterns on two wires.
  const PatternDomain d = PatternDomain::reduced(2);
  EXPECT_EQ(d.size(), 8u);
  EXPECT_EQ(d.binary_count(), 4u);
}

TEST(ReducedDomain4, SizeMatchesFormula) {
  // 4^4 - 3^4 + 1 = 256 - 81 + 1 = 176.
  EXPECT_EQ(PatternDomain::reduced(4).size(), 176u);
}

TEST(Domain, WireCountGuards) {
  EXPECT_THROW(PatternDomain::reduced(0), qsyn::LogicError);
  EXPECT_THROW(PatternDomain::full(9), qsyn::LogicError);
}

}  // namespace
}  // namespace qsyn::mvl
