// Unit tests for qsyn/common: error handling, RNG, strings, the clock.
#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"

namespace qsyn {
namespace {

// --- error -------------------------------------------------------------------

TEST(Error, CheckThrowsLogicErrorWithMessage) {
  try {
    QSYN_CHECK(1 == 2, "one is not two");
    FAIL() << "QSYN_CHECK should have thrown";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(QSYN_CHECK(2 + 2 == 4, "math works"));
}

TEST(Error, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw ParseError("p"), Error);
  EXPECT_THROW(throw SynthesisError("s"), Error);
  EXPECT_THROW(throw LogicError("l"), Error);
}

TEST(Error, RequireMacro) { EXPECT_THROW(QSYN_REQUIRE(false), LogicError); }

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), LogicError);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, JumpIsDeterministicAndMovesTheStream) {
  Rng jumped(42);
  jumped.jump();
  Rng same(42);
  same.jump();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(jumped(), same());

  // The jumped stream differs from the unjumped one (2^128 draws apart).
  Rng base(42);
  Rng far(42);
  far.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (base() == far()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitChildContinuesParentStreamParentJumps) {
  // split(): the child picks up the parent's current position; the parent
  // jumps past it. Children of successive splits are thus reproducible,
  // pairwise far apart, and independent of how many draws each consumes.
  Rng parent(7);
  Rng reference(7);
  Rng child_a = parent.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child_a(), reference());

  Rng replay(7);
  Rng child_b = parent.split();
  // Same root seed => the same sequence of split children, regardless of
  // draws made from earlier children in between.
  Rng replay_a = replay.split();
  Rng replay_b = replay.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child_b(), replay_b());
  int equal = 0;
  Rng fresh_a(7);  // == child_a before it was drawn from
  for (int i = 0; i < 64; ++i) equal += (fresh_a() == replay_b()) ? 1 : 0;
  EXPECT_LT(equal, 4);
  (void)replay_a;
}

// --- strings -----------------------------------------------------------------

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitBasic) {
  const auto parts = split("a, b ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("V+AB", "V+"));
  EXPECT_FALSE(starts_with("VAB", "V+"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_FALSE(starts_with("", "x"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "*"), "a*b*c");
  EXPECT_EQ(join({}, "*"), "");
  EXPECT_EQ(join({"solo"}, "*"), "solo");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("7", 3), "7  ");
  EXPECT_EQ(pad_left("long", 2), "long");
}

// --- clock -------------------------------------------------------------------

TEST(Clock, NowNsIsMonotoneNonDecreasing) {
  const std::uint64_t a = metrics::now_ns();
  const std::uint64_t b = metrics::now_ns();
  EXPECT_GE(b, a);
  EXPECT_GE(metrics::seconds_since(a), 0.0);
}

}  // namespace
}  // namespace qsyn
