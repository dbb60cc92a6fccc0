// Property-based / parameterized sweeps (TEST_P) over the gate library,
// random reasonable cascades, and the paper's named circuits. These pin the
// structural invariants the whole reduction rests on.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/permutation.h"
#include "sim/cross_check.h"
#include "sim/unitary.h"
#include "synth/mce.h"
#include "synth/specs.h"

namespace qsyn {
namespace {

const mvl::PatternDomain& domain3() {
  static const mvl::PatternDomain d = mvl::PatternDomain::reduced(3);
  return d;
}

const gates::GateLibrary& library3() {
  static const gates::GateLibrary lib(domain3());
  return lib;
}

// --- sweep over all 18 library gates -----------------------------------------

class EveryGate : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EveryGate, PermutationMatchesPatternAction) {
  const gates::Gate& g = library3().gate(GetParam());
  const perm::Permutation& p = library3().permutation(GetParam());
  for (std::uint32_t label = 1; label <= domain3().size(); ++label) {
    EXPECT_EQ(domain3().label_of(g.apply(domain3().pattern(label))),
              p.apply(label));
  }
}

TEST_P(EveryGate, UnitaryIsUnitaryAndAdjointInverts) {
  const gates::Gate& g = library3().gate(GetParam());
  const la::Matrix u = sim::gate_unitary(g, 3);
  EXPECT_TRUE(u.is_unitary());
  const la::Matrix ua = sim::gate_unitary(g.adjoint(), 3);
  EXPECT_TRUE((u * ua).is_identity(1e-9));
  EXPECT_TRUE(ua.approx_equal(u.adjoint(), 1e-9));
}

TEST_P(EveryGate, MvMatchesHilbertAsSingleGateCascade) {
  gates::Cascade c(3);
  c.append(library3().gate(GetParam()));
  EXPECT_TRUE(sim::mv_model_matches_hilbert(c, domain3()));
}

TEST_P(EveryGate, BannedSetExactlyDescribesDontCares) {
  // For labels outside the gate's banned set, the don't-care rule never
  // fires: the permutation matches genuine quantum action. Inside the
  // banned set for controls, the gate fixes the pattern iff control != 1.
  const gates::Gate& g = library3().gate(GetParam());
  const auto klass = g.banned_class(domain3());
  ASSERT_TRUE(klass.has_value());
  for (std::uint32_t label = 1; label <= domain3().size(); ++label) {
    const mvl::Pattern& p = domain3().pattern(label);
    const bool banned = (domain3().banned_mask(label) >> *klass & 1u) != 0;
    if (banned && g.kind() != gates::GateKind::kFeynman) {
      // Controls carrying V0/V1 leave the pattern unchanged by fiat.
      if (mvl::is_mixed(p.get(g.control()))) {
        EXPECT_EQ(g.apply(p), p);
      }
    }
  }
}

TEST_P(EveryGate, NameParsesBack) {
  const gates::Gate& g = library3().gate(GetParam());
  EXPECT_EQ(gates::Gate::parse(g.name()), g);
}

INSTANTIATE_TEST_SUITE_P(AllLibraryGates, EveryGate,
                         ::testing::Range<std::size_t>(0, 18),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return library3().gate(i.param).name() == ""
                                      ? std::string("g")
                                      : [&] {
                                          std::string n =
                                              library3().gate(i.param).name();
                                          for (auto& ch : n) {
                                            if (ch == '+') ch = 'd';
                                          }
                                          return n;
                                        }();
                         });

// --- random reasonable cascades ----------------------------------------------

class RandomCascade : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Builds a random reasonable cascade of up to 6 gates by rejection.
  static gates::Cascade make(std::uint64_t seed) {
    Rng rng(seed);
    gates::Cascade c(3);
    const std::size_t length = 1 + rng.below(6);
    while (c.size() < length) {
      const std::size_t g = rng.below(library3().size());
      gates::Cascade candidate = c;
      candidate.append(library3().gate(g));
      if (candidate.is_reasonable(domain3())) c = std::move(candidate);
    }
    return c;
  }
};

TEST_P(RandomCascade, PermutationEqualsGatePermProduct) {
  const gates::Cascade c = make(GetParam());
  perm::Permutation product = perm::Permutation::identity(domain3().size());
  for (const gates::Gate& g : c.sequence()) {
    product = product * g.to_permutation(domain3());
  }
  EXPECT_EQ(c.to_permutation(domain3()), product);
}

TEST_P(RandomCascade, MvModelMatchesHilbert) {
  EXPECT_TRUE(sim::mv_model_matches_hilbert(make(GetParam()), domain3()));
}

TEST_P(RandomCascade, AdjointInvertsPermutationAndUnitary) {
  const gates::Cascade c = make(GetParam());
  const gates::Cascade adj = c.adjoint();
  EXPECT_TRUE(
      (c.to_permutation(domain3()) * adj.to_permutation(domain3()))
          .is_identity());
  const la::Matrix u = sim::cascade_unitary(c) * sim::cascade_unitary(adj);
  EXPECT_TRUE(u.is_identity(1e-9));
}

TEST_P(RandomCascade, BinaryPreservingIffPermStabilizesS) {
  const gates::Cascade c = make(GetParam());
  const auto p = c.to_permutation(domain3());
  EXPECT_EQ(c.is_binary_preserving(),
            p.stabilizes_set({1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_P(RandomCascade, BinaryPreservingCascadesResynthesizeAtOrBelowCost) {
  const gates::Cascade c = make(GetParam());
  if (!c.is_binary_preserving()) return;
  static synth::McExpressor mce(library3(), 7);
  const auto result = mce.synthesize(c.to_binary_permutation());
  ASSERT_TRUE(result.has_value());
  EXPECT_LE(result->cost, c.size());
  EXPECT_EQ(result->circuit.to_binary_permutation(),
            c.to_binary_permutation());
}

TEST_P(RandomCascade, ParsePrintRoundTrip) {
  const gates::Cascade c = make(GetParam());
  EXPECT_EQ(gates::Cascade::parse(c.to_string(), 3).to_string(),
            c.to_string());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCascade,
                         ::testing::Range<std::uint64_t>(1, 41));

// --- sweep over the paper's named circuits -----------------------------------

struct NamedCircuit {
  const char* name;
  const char* cascade;
  const char* perm_cycles;
};

// Without this gtest prints the three pointers' bytes, and under ASLR the
// discovered ctest names would change on every build.
void PrintTo(const NamedCircuit& c, std::ostream* os) {
  *os << c.perm_cycles;
}

class PaperCircuit : public ::testing::TestWithParam<NamedCircuit> {};

TEST_P(PaperCircuit, CascadeRealizesPrintedPermutation) {
  const auto& param = GetParam();
  const gates::Cascade c = gates::Cascade::parse(param.cascade, 3);
  const auto expected = perm::Permutation::from_cycles(param.perm_cycles, 8);
  EXPECT_EQ(c.to_binary_permutation(), expected);
  EXPECT_TRUE(sim::realizes_permutation(c, expected));
  EXPECT_TRUE(c.is_reasonable(domain3()));
}

TEST_P(PaperCircuit, MinimalCostEqualsPrintedLength) {
  const auto& param = GetParam();
  const gates::Cascade c = gates::Cascade::parse(param.cascade, 3);
  static synth::McExpressor mce(library3(), 7);
  const auto cost = mce.minimal_cost(c.to_binary_permutation());
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, c.size());
}

INSTANTIATE_TEST_SUITE_P(
    Figures, PaperCircuit,
    ::testing::Values(
        NamedCircuit{"peres_fig4", "VCB*FBA*VCA*V+CB", "(5,7,6,8)"},
        NamedCircuit{"peres_fig8", "V+CB*FBA*V+CA*VCB", "(5,7,6,8)"},
        NamedCircuit{"g2_fig5", "V+BC*FCA*VBA*VBC", "(5,8,7,6)"},
        NamedCircuit{"g3_fig6", "VCB*FBA*V+CA*VCB", "(3,4)(5,7)(6,8)"},
        NamedCircuit{"g4_fig7", "VCB*FBA*VCA*VCB", "(3,4)(5,8)(6,7)"},
        NamedCircuit{"toffoli_a", "FBA*V+CB*FBA*VCA*VCB", "(7,8)"},
        NamedCircuit{"toffoli_b", "FBA*VCB*FBA*V+CA*V+CB", "(7,8)"},
        NamedCircuit{"toffoli_c", "FAB*V+CA*FAB*VCA*VCB", "(7,8)"},
        NamedCircuit{"toffoli_d", "FAB*VCA*FAB*V+CA*V+CB", "(7,8)"}),
    [](const ::testing::TestParamInfo<NamedCircuit>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace qsyn
