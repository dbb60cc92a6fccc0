// Unit tests for qsyn/automata: measurement semantics, probabilistic specs,
// minimal-cost probabilistic synthesis, and the controlled QRNG (Section 4).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "automata/measurement.h"
#include "common/error.h"
#include "automata/prob_spec.h"
#include "automata/prob_synth.h"
#include "automata/qrng.h"
#include "common/rng.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "sim/state_vector.h"

namespace qsyn::automata {
namespace {

using mvl::Pattern;

// --- measurement -------------------------------------------------------------

TEST(Measurement, BinaryPatternIsDeterministic) {
  const Pattern p = Pattern::parse("1,0,1");
  EXPECT_DOUBLE_EQ(outcome_probability(p, 0b101), 1.0);
  EXPECT_DOUBLE_EQ(outcome_probability(p, 0b100), 0.0);
}

TEST(Measurement, MixedWiresAreFairCoins) {
  const Pattern p = Pattern::parse("1,V0,0");
  EXPECT_DOUBLE_EQ(outcome_probability(p, 0b100), 0.5);
  EXPECT_DOUBLE_EQ(outcome_probability(p, 0b110), 0.5);
  EXPECT_DOUBLE_EQ(outcome_probability(p, 0b000), 0.0);
}

TEST(Measurement, DistributionSumsToOne) {
  for (const char* text : {"1,V0,V1", "V0,V0,V0", "0,1,0", "V1,1,V0"}) {
    double total = 0.0;
    for (const double p : outcome_distribution(Pattern::parse(text))) {
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << text;
  }
}

TEST(Measurement, MatchesHilbertSpaceProbabilities) {
  // The factorized MV distribution equals the simulator's state distribution.
  for (const char* text : {"1,V0,0", "V1,V0,1", "0,V1,V1"}) {
    const Pattern p = Pattern::parse(text);
    const auto mv = outcome_distribution(p);
    const auto hilbert = sim::StateVector::from_pattern(p).distribution();
    ASSERT_EQ(mv.size(), hilbert.size());
    for (std::size_t i = 0; i < mv.size(); ++i) {
      EXPECT_NEAR(mv[i], hilbert[i], 1e-12) << text << " outcome " << i;
    }
  }
}

TEST(Measurement, SamplingMatchesDistribution) {
  const Pattern p = Pattern::parse("1,V0,V1");
  Rng rng(42);
  std::vector<int> hist(8, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++hist[sample_measurement(p, rng)];
  const auto dist = outcome_distribution(p);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(hist[i] / static_cast<double>(n), dist[i], 0.02);
  }
}

TEST(Measurement, OutcomeRangeChecked) {
  EXPECT_THROW((void)outcome_probability(Pattern::parse("0,0"), 4),
               qsyn::LogicError);
}

TEST(Measurement, SampleIndexRoundingTailLandsOnNonzeroOutcome) {
  // Regression: with trailing zero-probability outcomes, a uniform draw
  // above the accumulated mass (tiny masses underflow the running sum) used
  // to fall through to the *last* index — an outcome with probability zero.
  // The fallback must land on the last nonzero-probability index instead.
  const std::vector<double> dist = {0.0, 1e-30, 0.0};
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(sample_index(dist, rng), 1u);
  }
}

TEST(Measurement, SampleIndexRejectsMasslessDistributions) {
  Rng rng(2);
  EXPECT_THROW((void)sample_index({}, rng), qsyn::LogicError);
  EXPECT_THROW((void)sample_index({0.0, 0.0}, rng), qsyn::LogicError);
}

// --- specs -------------------------------------------------------------------

TEST(ExactProbSpec, ValidatesShape) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(2);
  // Identity on binary patterns: realizable.
  std::vector<Pattern> outputs;
  for (std::uint32_t i = 0; i < 4; ++i) {
    outputs.push_back(Pattern::from_binary(2, i));
  }
  EXPECT_TRUE(ExactProbSpec(2, outputs).is_realizable_shape(domain));
  // Two inputs mapping to one output: not injective.
  outputs[1] = outputs[0];
  EXPECT_FALSE(ExactProbSpec(2, outputs).is_realizable_shape(domain));
}

TEST(ExactProbSpec, RejectsOutOfDomainOutputs) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(2);
  std::vector<Pattern> outputs;
  for (std::uint32_t i = 0; i < 4; ++i) {
    outputs.push_back(Pattern::from_binary(2, i));
  }
  outputs[0] = Pattern::parse("V0,0");  // contains no 1: outside the domain
  EXPECT_FALSE(ExactProbSpec(2, outputs).is_realizable_shape(domain));
}

TEST(ExactProbSpec, SizeValidation) {
  EXPECT_THROW(ExactProbSpec(2, {Pattern(2)}), qsyn::LogicError);
}

TEST(BehavioralProbSpec, AcceptRules) {
  const BehavioralProbSpec spec(
      2, {{WireBehavior::kZero, WireBehavior::kZero},
          {WireBehavior::kZero, WireBehavior::kOne},
          {WireBehavior::kOne, WireBehavior::kCoin},
          {WireBehavior::kOne, WireBehavior::kCoin}});
  EXPECT_TRUE(spec.accepts(2, Pattern::parse("1,V0")));
  EXPECT_TRUE(spec.accepts(2, Pattern::parse("1,V1")));
  EXPECT_FALSE(spec.accepts(2, Pattern::parse("1,0")));
  EXPECT_FALSE(spec.accepts(0, Pattern::parse("0,1")));
  EXPECT_TRUE(spec.accepts(0, Pattern::parse("0,0")));
}

TEST(BehavioralProbSpec, TargetDistribution) {
  const BehavioralProbSpec spec(
      2, {{WireBehavior::kZero, WireBehavior::kCoin},
          {WireBehavior::kZero, WireBehavior::kOne},
          {WireBehavior::kCoin, WireBehavior::kCoin},
          {WireBehavior::kOne, WireBehavior::kOne}});
  const auto d0 = spec.target_distribution(0);
  EXPECT_DOUBLE_EQ(d0[0b00], 0.5);
  EXPECT_DOUBLE_EQ(d0[0b01], 0.5);
  EXPECT_DOUBLE_EQ(d0[0b10], 0.0);
  const auto d2 = spec.target_distribution(2);
  for (const double p : d2) EXPECT_DOUBLE_EQ(p, 0.25);
}

// --- synthesis ---------------------------------------------------------------

class ProbSynth3 : public ::testing::Test {
 protected:
  static const gates::GateLibrary& library() {
    static const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
    static const gates::GateLibrary lib(domain);
    return lib;
  }
};

TEST_F(ProbSynth3, IdentitySpecCostsZero) {
  std::vector<Pattern> outputs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    outputs.push_back(Pattern::from_binary(3, i));
  }
  const ProbSynthesizer synthesizer(library());
  const auto c = synthesizer.synthesize(ExactProbSpec(3, outputs));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size(), 0u);
}

TEST_F(ProbSynth3, SingleVGateSpec) {
  // The truth table of VBA itself must synthesize at cost 1.
  std::vector<Pattern> outputs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    outputs.push_back(
        gates::Gate::ctrl_v(1, 0).apply(Pattern::from_binary(3, i)));
  }
  const ProbSynthesizer synthesizer(library());
  const auto c = synthesizer.synthesize(ExactProbSpec(3, outputs));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size(), 1u);
  EXPECT_EQ(c->gate(0), gates::Gate::ctrl_v(1, 0));
}

TEST_F(ProbSynth3, ExactSynthesisMatchesSpecOnAllInputs) {
  // A deterministic-but-nonclassical spec: Feynman then V.
  const gates::Cascade reference = gates::Cascade::parse("FBA*VCB", 3);
  std::vector<Pattern> outputs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    outputs.push_back(reference.apply(Pattern::from_binary(3, i)));
  }
  const ProbSynthesizer synthesizer(library());
  const auto c = synthesizer.synthesize(ExactProbSpec(3, outputs));
  ASSERT_TRUE(c.has_value());
  EXPECT_LE(c->size(), 2u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(c->apply(Pattern::from_binary(3, i)), outputs[i]);
  }
}

TEST_F(ProbSynth3, UnrealizableSpecReturnsNullopt) {
  // Map every input to itself except two inputs swapped into the same
  // output pattern — not injective, hence unrealizable.
  std::vector<Pattern> outputs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    outputs.push_back(Pattern::from_binary(3, 0));
  }
  const ProbSynthesizer synthesizer(library());
  EXPECT_FALSE(synthesizer.synthesize(ExactProbSpec(3, outputs)).has_value());
}

TEST_F(ProbSynth3, BehavioralSpecFindsMinimalCoin) {
  // One coin on wire C when A = 1: a single controlled-V away.
  const auto spec = controlled_coin_spec(3);
  const ProbSynthesizer synthesizer(library());
  const auto c = synthesizer.synthesize(spec);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size(), 1u);
  for (std::uint32_t input = 0; input < 8; ++input) {
    EXPECT_TRUE(spec.accepts(input, c->apply(Pattern::from_binary(3, input))));
  }
}

TEST_F(ProbSynth3, LibraryWithoutAdjointsSynthesizes) {
  // VBA alone: its adjoint V+BA is not in the library, and VBA twice is the
  // CNOT it takes to flip wire B.
  const gates::GateLibrary v_only =
      library().restricted_to({library().index_of("VBA")});
  const gates::Cascade reference = gates::Cascade::parse("VBA*VBA", 3);
  std::vector<Pattern> outputs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    outputs.push_back(reference.apply(Pattern::from_binary(3, i)));
  }
  const ProbSynthesizer synthesizer(v_only);
  const auto c = synthesizer.synthesize(ExactProbSpec(3, outputs));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, reference);
}

TEST_F(ProbSynth3, MaxCostGuard) {
  EXPECT_THROW(ProbSynthesizer(library(), 10), qsyn::LogicError);
}

// --- ProbSynthesizer vs an unpruned walk -------------------------------------
//
// The oracle reads the contract literally: iterative deepening over every
// reasonable cascade in gate-index order, no pruning, first accepted leaf
// wins. The pruned search must return that same cascade gate for gate.

using Images = std::vector<std::uint16_t>;  // 0-based binary-label images

template <typename AcceptFn>
bool unpruned_dfs(const gates::GateLibrary& lib, const Images& images,
                  std::vector<std::size_t>& chosen, unsigned depth,
                  const AcceptFn& accepts) {
  if (depth == 0) return accepts(images);
  std::uint32_t banned = 0;
  for (const std::uint16_t label0 : images) {
    banned |= lib.domain().banned_mask(label0 + 1u);
  }
  Images next(images.size());
  for (std::size_t g = 0; g < lib.size(); ++g) {
    if ((banned & (1u << lib.banned_class_of(g))) != 0) continue;
    for (std::size_t s = 0; s < images.size(); ++s) {
      next[s] = static_cast<std::uint16_t>(
          lib.permutation(g).apply(images[s] + 1u) - 1u);
    }
    chosen.push_back(g);
    if (unpruned_dfs(lib, next, chosen, depth - 1, accepts)) return true;
    chosen.pop_back();
  }
  return false;
}

template <typename AcceptFn>
std::optional<gates::Cascade> unpruned_search(const gates::GateLibrary& lib,
                                              unsigned max_cost,
                                              const AcceptFn& accepts) {
  Images identity(lib.domain().binary_count());
  for (std::size_t s = 0; s < identity.size(); ++s) {
    identity[s] = static_cast<std::uint16_t>(s);
  }
  for (unsigned depth = 0; depth <= max_cost; ++depth) {
    std::vector<std::size_t> chosen;
    if (unpruned_dfs(lib, identity, chosen, depth, accepts)) {
      gates::Cascade cascade(lib.domain().wires());
      for (const std::size_t g : chosen) cascade.append(lib.gate(g));
      return cascade;
    }
  }
  return std::nullopt;
}

/// Every distinct output table of a reasonable cascade of <= 3 gates.
std::vector<std::vector<Pattern>> short_cascade_outputs(
    const gates::GateLibrary& lib) {
  const mvl::PatternDomain& domain = lib.domain();
  std::set<Images> seen;
  std::vector<std::vector<Pattern>> outputs;
  const auto collect = [&](const Images& images) {
    if (seen.insert(images).second) {
      std::vector<Pattern> table;
      for (const std::uint16_t label0 : images) {
        table.push_back(domain.pattern(label0 + 1u));
      }
      outputs.push_back(std::move(table));
    }
    return false;  // keep walking
  };
  Images identity(domain.binary_count());
  for (std::size_t s = 0; s < identity.size(); ++s) {
    identity[s] = static_cast<std::uint16_t>(s);
  }
  for (unsigned depth = 0; depth <= 3; ++depth) {
    std::vector<std::size_t> chosen;
    (void)unpruned_dfs(lib, identity, chosen, depth, collect);
  }
  return outputs;
}

/// The behavioural relaxation of an output table: a coin wherever an output
/// wire is mixed, the binary value elsewhere.
BehavioralProbSpec relax(std::size_t wires,
                         const std::vector<Pattern>& outputs) {
  std::vector<std::vector<WireBehavior>> rows;
  for (const Pattern& out : outputs) {
    std::vector<WireBehavior> row(wires);
    for (std::size_t w = 0; w < wires; ++w) {
      switch (out.get(w)) {
        case mvl::Quat::kZero: row[w] = WireBehavior::kZero; break;
        case mvl::Quat::kOne: row[w] = WireBehavior::kOne; break;
        default: row[w] = WireBehavior::kCoin; break;
      }
    }
    rows.push_back(std::move(row));
  }
  return BehavioralProbSpec(wires, std::move(rows));
}

class ProbSynthOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProbSynthOracle, ShortCascadeSpecsMatchTheUnprunedWalk) {
  const std::size_t wires = GetParam();
  const auto lib = gates::GateLibrary::standard(wires);
  const mvl::PatternDomain& domain = lib.domain();
  const ProbSynthesizer synthesizer(lib, 3);
  const auto tables = short_cascade_outputs(lib);
  ASSERT_GT(tables.size(), lib.size());
  for (const std::vector<Pattern>& outputs : tables) {
    const ExactProbSpec exact(wires, outputs);
    Images wanted;
    for (const Pattern& out : outputs) {
      wanted.push_back(static_cast<std::uint16_t>(domain.label_of(out) - 1));
    }
    const auto expected = unpruned_search(
        lib, 3, [&wanted](const Images& images) { return images == wanted; });
    ASSERT_TRUE(expected.has_value());
    const auto got = synthesizer.synthesize(exact);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, *expected) << expected->to_string();

    const BehavioralProbSpec behavioral = relax(wires, outputs);
    const auto expected_b =
        unpruned_search(lib, 3, [&](const Images& images) {
          for (std::uint32_t i = 0; i < images.size(); ++i) {
            if (!behavioral.accepts(i, domain.pattern(images[i] + 1u))) {
              return false;
            }
          }
          return true;
        });
    ASSERT_TRUE(expected_b.has_value());
    const auto got_b = synthesizer.synthesize(behavioral);
    ASSERT_TRUE(got_b.has_value());
    EXPECT_EQ(*got_b, *expected_b) << expected_b->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Wires, ProbSynthOracle, ::testing::Values(2u, 3u));

// --- controlled QRNG ---------------------------------------------------------

TEST_F(ProbSynth3, QrngDistributionIsControlled) {
  const auto qrng =
      ControlledQrng::synthesize(library(), controlled_coin_spec(3));
  ASSERT_TRUE(qrng.has_value());
  // Input 000: deterministic passthrough.
  const auto d0 = qrng->distribution(0b000);
  EXPECT_DOUBLE_EQ(d0[0b000], 1.0);
  // Input 100: wire C is a fair coin, A stays 1, B stays 0.
  const auto d4 = qrng->distribution(0b100);
  EXPECT_DOUBLE_EQ(d4[0b100], 0.5);
  EXPECT_DOUBLE_EQ(d4[0b101], 0.5);
  EXPECT_DOUBLE_EQ(d4[0b000], 0.0);
}

TEST_F(ProbSynth3, QrngHistogramMatchesDistribution) {
  const auto qrng =
      ControlledQrng::synthesize(library(), controlled_coin_spec(3));
  ASSERT_TRUE(qrng.has_value());
  Rng rng(7);
  const std::size_t n = 20000;
  const auto hist = qrng->histogram(0b110, n, rng);
  const auto dist = qrng->distribution(0b110);
  for (std::size_t i = 0; i < hist.size(); ++i) {
    EXPECT_NEAR(hist[i] / static_cast<double>(n), dist[i], 0.02);
  }
}

TEST(Qrng, TwoWireCoin) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(2);
  const gates::GateLibrary library(domain);
  const auto qrng = ControlledQrng::synthesize(library,
                                               controlled_coin_spec(2));
  ASSERT_TRUE(qrng.has_value());
  EXPECT_EQ(qrng->circuit().size(), 1u);
  const auto d = qrng->distribution(0b10);
  EXPECT_DOUBLE_EQ(d[0b10], 0.5);
  EXPECT_DOUBLE_EQ(d[0b11], 0.5);
}

TEST(Qrng, SpecGuards) {
  EXPECT_THROW(controlled_coin_spec(1), qsyn::LogicError);
}

TEST(Qrng, SpecGuardsAgainstShiftOverflow) {
  // Regression: `1u << wires` at wires >= 32 is undefined behavior; the
  // wire count must be rejected (patterns cap at mvl::kMaxWires anyway)
  // before any outcome-space shift is evaluated.
  EXPECT_THROW(controlled_coin_spec(17), qsyn::LogicError);
  EXPECT_THROW(controlled_coin_spec(32), qsyn::LogicError);
  EXPECT_THROW(controlled_coin_spec(33), qsyn::LogicError);
  EXPECT_THROW(controlled_coin_spec(64), qsyn::LogicError);
}

}  // namespace
}  // namespace qsyn::automata
