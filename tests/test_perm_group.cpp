// Unit tests for qsyn/perm: Schreier-Sims groups and coset utilities (the
// in-repo replacement for the GAP computations of the paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.h"
#include "perm/cosets.h"
#include "perm/perm_group.h"

namespace qsyn::perm {
namespace {

TEST(PermGroup, TrivialGroup) {
  const PermGroup g(5);
  EXPECT_EQ(g.order(), 1u);
  EXPECT_TRUE(g.contains(Permutation::identity(5)));
  EXPECT_FALSE(g.contains(Permutation::from_cycles("(1,2)", 5)));
}

TEST(PermGroup, SymmetricGroupOrders) {
  EXPECT_EQ(PermGroup::symmetric(3).order(), 6u);
  EXPECT_EQ(PermGroup::symmetric(4).order(), 24u);
  EXPECT_EQ(PermGroup::symmetric(5).order(), 120u);
  EXPECT_EQ(PermGroup::symmetric(8).order(), 40320u);
}

TEST(PermGroup, AlternatingGroupOrders) {
  EXPECT_EQ(PermGroup::alternating(4).order(), 12u);
  EXPECT_EQ(PermGroup::alternating(5).order(), 60u);
  EXPECT_EQ(PermGroup::alternating(8).order(), 20160u);
}

TEST(PermGroup, AlternatingContainsOnlyEvens) {
  const PermGroup a4 = PermGroup::alternating(4);
  EXPECT_TRUE(a4.contains(Permutation::from_cycles("(1,2,3)", 4)));
  EXPECT_FALSE(a4.contains(Permutation::from_cycles("(1,2)", 4)));
  EXPECT_TRUE(a4.contains(Permutation::from_cycles("(1,2)(3,4)", 4)));
}

TEST(PermGroup, CyclicGroup) {
  const PermGroup c6(std::vector<Permutation>{
      Permutation::from_cycles("(1,2,3,4,5,6)", 6)});
  EXPECT_EQ(c6.order(), 6u);
  EXPECT_TRUE(c6.contains(Permutation::from_cycles("(1,3,5)(2,4,6)", 6)));
  EXPECT_FALSE(c6.contains(Permutation::from_cycles("(1,2)", 6)));
}

TEST(PermGroup, KleinFourGroup) {
  const PermGroup v4(std::vector<Permutation>{
      Permutation::from_cycles("(1,2)(3,4)", 4),
      Permutation::from_cycles("(1,3)(2,4)", 4)});
  EXPECT_EQ(v4.order(), 4u);
}

TEST(PermGroup, DihedralGroup) {
  // D4 = symmetries of a square: rotation + reflection.
  const PermGroup d4(std::vector<Permutation>{
      Permutation::from_cycles("(1,2,3,4)", 4),
      Permutation::from_cycles("(1,3)", 4)});
  EXPECT_EQ(d4.order(), 8u);
}

TEST(PermGroup, Psl27ViaTwoGenerators) {
  // <(1,2,3,4,5,6,7), (2,3)(4,7)> is PSL(2,7) of order 168 — the group of
  // 3-bit CNOT circuits GL(3,2) in disguise.
  const PermGroup g(std::vector<Permutation>{
      Permutation::from_cycles("(1,2,3,4,5,6,7)", 7),
      Permutation::from_cycles("(2,3)(4,7)", 7)});
  EXPECT_EQ(g.order(), 168u);
}

TEST(PermGroup, MembershipMatchesEnumeration) {
  const PermGroup g(std::vector<Permutation>{
      Permutation::from_cycles("(1,2,3)", 5),
      Permutation::from_cycles("(3,4,5)", 5)});
  const auto elements = g.elements();
  EXPECT_EQ(elements.size(), g.order());
  for (const auto& e : elements) EXPECT_TRUE(g.contains(e));
}

TEST(PermGroup, ElementsAreDistinct) {
  const PermGroup s4 = PermGroup::symmetric(4);
  const auto elements = s4.elements();
  std::set<Permutation> distinct(elements.begin(), elements.end());
  EXPECT_EQ(distinct.size(), 24u);
}

TEST(PermGroup, ElementsLimitGuard) {
  EXPECT_THROW((void)PermGroup::symmetric(8).elements(100), qsyn::LogicError);
}

TEST(PermGroup, OrbitOfTransitiveGroup) {
  const PermGroup s5 = PermGroup::symmetric(5);
  EXPECT_EQ(s5.orbit(1).size(), 5u);
}

TEST(PermGroup, OrbitOfIntransitiveGroup) {
  const PermGroup g(std::vector<Permutation>{
      Permutation::from_cycles("(1,2)", 5),
      Permutation::from_cycles("(3,4,5)", 5)});
  EXPECT_EQ(g.orbit(1), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(g.orbit(3), (std::vector<std::uint32_t>{3, 4, 5}));
}

TEST(PermGroup, FixesPoint) {
  const PermGroup g(std::vector<Permutation>{
      Permutation::from_cycles("(2,3,4)", 4)});
  EXPECT_TRUE(g.fixes_point(1));
  EXPECT_FALSE(g.fixes_point(2));
}

TEST(PermGroup, ContainsGroupAndEquals) {
  const PermGroup s4 = PermGroup::symmetric(4);
  const PermGroup a4 = PermGroup::alternating(4);
  EXPECT_TRUE(s4.contains_group(a4));
  EXPECT_FALSE(a4.contains_group(s4));
  EXPECT_FALSE(s4.equals(a4));
  const PermGroup s4_again(std::vector<Permutation>{
      Permutation::from_cycles("(1,2)", 4),
      Permutation::from_cycles("(1,2,3,4)", 4)});
  EXPECT_TRUE(s4.equals(s4_again));
}

TEST(PermGroup, OrderStringMatchesOrder) {
  EXPECT_EQ(PermGroup::symmetric(8).order_string(), "40320");
  EXPECT_EQ(PermGroup(3).order_string(), "1");
}

TEST(PermGroup, LargeDegreeOrderString) {
  // S12 via adjacent transpositions: 479001600.
  EXPECT_EQ(PermGroup::symmetric(12).order_string(), "479001600");
}

TEST(PermGroup, StabilizerSubgroupOfS8HasOrder5040) {
  // Permutations of 8 points fixing point 1 = S7. Generate with 1-fixing
  // transpositions.
  std::vector<Permutation> gens;
  for (std::uint32_t i = 2; i < 8; ++i) {
    gens.push_back(Permutation::transposition(8, i, i + 1));
  }
  const PermGroup stab(gens);
  EXPECT_EQ(stab.order(), 5040u);
  EXPECT_TRUE(stab.fixes_point(1));
}

TEST(PermGroup, GeneratorsWithIdentityIgnored) {
  const PermGroup g(std::vector<Permutation>{
      Permutation::identity(4), Permutation::from_cycles("(1,2)", 4)});
  EXPECT_EQ(g.order(), 2u);
}

// --- cosets ------------------------------------------------------------------

TEST(Cosets, SameLeftCoset) {
  const PermGroup a4 = PermGroup::alternating(4);
  const Permutation t = Permutation::from_cycles("(1,2)", 4);
  const Permutation u = Permutation::from_cycles("(3,4)", 4);
  // Both odd: t*A4 == u*A4 because t^{-1}*u is even.
  EXPECT_TRUE(same_left_coset(t, u, a4));
  EXPECT_FALSE(same_left_coset(t, Permutation::identity(4), a4));
}

TEST(Cosets, InLeftCoset) {
  const PermGroup a4 = PermGroup::alternating(4);
  const Permutation t = Permutation::from_cycles("(1,2)", 4);
  EXPECT_TRUE(in_left_coset(Permutation::from_cycles("(1,3)", 4), t, a4));
  EXPECT_FALSE(in_left_coset(Permutation::from_cycles("(1,2,3)", 4), t, a4));
}

TEST(Cosets, PartitionOfS4ByA4) {
  const PermGroup s4 = PermGroup::symmetric(4);
  const PermGroup a4 = PermGroup::alternating(4);
  const std::vector<Permutation> reps = {
      Permutation::identity(4), Permutation::from_cycles("(1,2)", 4)};
  EXPECT_TRUE(cosets_partition_group(reps, a4, s4));
}

TEST(Cosets, PartitionRejectsDuplicateCosets) {
  const PermGroup s4 = PermGroup::symmetric(4);
  const PermGroup a4 = PermGroup::alternating(4);
  const std::vector<Permutation> reps = {
      Permutation::from_cycles("(1,2)", 4),
      Permutation::from_cycles("(3,4)", 4)};  // same coset twice
  EXPECT_FALSE(cosets_partition_group(reps, a4, s4));
}

TEST(Cosets, PartitionRejectsWrongCount) {
  const PermGroup s4 = PermGroup::symmetric(4);
  const PermGroup a4 = PermGroup::alternating(4);
  EXPECT_FALSE(
      cosets_partition_group({Permutation::identity(4)}, a4, s4));
}

TEST(Cosets, RepresentativesEnumerate) {
  const PermGroup s4 = PermGroup::symmetric(4);
  const PermGroup v4(std::vector<Permutation>{
      Permutation::from_cycles("(1,2)(3,4)", 4),
      Permutation::from_cycles("(1,3)(2,4)", 4)});
  const auto reps = left_coset_representatives(v4, s4);
  EXPECT_EQ(reps.size(), 6u);  // |S4| / |V4| = 24 / 4
  EXPECT_TRUE(cosets_partition_group(reps, v4, s4));
}

}  // namespace
}  // namespace qsyn::perm
