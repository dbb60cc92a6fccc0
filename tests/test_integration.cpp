// Cross-module integration tests: the full pipeline from pattern domains
// through enumeration, synthesis, simplification, and Hilbert-space
// verification, including the 4-qubit generalization.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/perm_group.h"
#include "sim/cross_check.h"
#include "synth/fmcf.h"
#include "synth/mce.h"
#include "synth/rewrite.h"
#include "synth/specs.h"
#include "synth/weighted.h"

namespace qsyn {
namespace {

TEST(Integration, FourQubitClosureLevels) {
  // Extension X4: first levels of the 4-wire closure (values pinned from
  // bench_domain_growth; |G4[1]| = 12 is forced — the twelve 4-wire CNOTs).
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(4);
  ASSERT_EQ(domain.size(), 176u);
  const gates::GateLibrary library(domain);
  ASSERT_EQ(library.size(), 36u);
  synth::ClosureConfig options;
  options.track_witnesses = false;
  synth::FmcfEnumerator enumerator(library, options);
  enumerator.run_to(3);
  EXPECT_EQ(enumerator.stats()[0].g_new, 12u);
  EXPECT_EQ(enumerator.stats()[1].g_new, 96u);
  EXPECT_EQ(enumerator.stats()[2].g_new, 542u);
  EXPECT_EQ(enumerator.stats()[0].frontier, 36u);
  EXPECT_EQ(enumerator.stats()[1].frontier, 684u);
}

TEST(Integration, FourQubitPaperStyleGateCycles) {
  // The 4-wire V_BA must restrict to the 3-wire V_BA on patterns where the
  // fourth wire is 0 (embedding consistency).
  const mvl::PatternDomain d3 = mvl::PatternDomain::reduced(3);
  const mvl::PatternDomain d4 = mvl::PatternDomain::reduced(4);
  const gates::Gate vba = gates::Gate::ctrl_v(1, 0);
  for (std::uint32_t label = 1; label <= d3.size(); ++label) {
    const mvl::Pattern p3 = d3.pattern(label);
    mvl::Pattern p4(4);
    for (std::size_t w = 0; w < 3; ++w) p4.set(w, p3.get(w));
    const mvl::Pattern out4 = vba.apply(p4);
    const mvl::Pattern out3 = vba.apply(p3);
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_EQ(out4.get(w), out3.get(w));
    }
    EXPECT_EQ(out4.get(3), mvl::Quat::kZero);
  }
}

TEST(Integration, CatalogCountsAreConsistent) {
  // Sum over G[0..7] = 1260 circuits; every member synthesizes back at its
  // own cost and its simplified witness has the same length (witnesses are
  // already irredundant).
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  synth::FmcfEnumerator enumerator(library);
  enumerator.run_to(7);
  std::size_t total = 0;
  for (unsigned k = 0; k <= 7; ++k) total += enumerator.g_set(k).size();
  EXPECT_EQ(total, 1260u);

  Rng rng(5);
  for (unsigned k = 1; k <= 6; ++k) {
    const auto g = enumerator.g_set(k);
    // Sample a handful per level (full sweep is covered elsewhere).
    for (int trial = 0; trial < 5; ++trial) {
      const auto& target = g[rng.below(g.size())];
      const auto entry = enumerator.find(target);
      ASSERT_TRUE(entry.has_value());
      const gates::Cascade witness = enumerator.witness(*entry);
      const gates::Cascade simplified = synth::simplify(witness);
      EXPECT_EQ(simplified.size(), witness.size())
          << "minimal witness should be irredundant: " << witness.to_string();
      EXPECT_TRUE(sim::realizes_permutation(witness, target));
    }
  }
}

TEST(Integration, SimplifierNeverBeatsExactSynthesis) {
  // For random reasonable cascades, simplify() cannot go below the exact
  // minimal cost (it is a peephole pass, not a synthesizer) and the exact
  // synthesizer matches or beats it.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  synth::McExpressor mce(library, 7);
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    gates::Cascade c(3);
    while (c.size() < 6) {
      gates::Cascade candidate = c;
      candidate.append(library.gate(rng.below(library.size())));
      if (candidate.is_reasonable(domain)) c = std::move(candidate);
    }
    if (!c.is_binary_preserving()) continue;
    const gates::Cascade simplified = synth::simplify(c);
    const auto exact = mce.minimal_cost(c.to_binary_permutation());
    ASSERT_TRUE(exact.has_value());
    EXPECT_LE(*exact, simplified.size());
    EXPECT_TRUE(synth::same_full_semantics(c, simplified));
  }
}

TEST(Integration, WeightedAndMceAgreeOnEveryCostFourCircuit) {
  // Exhaustive agreement check on a whole level: all 84 cost-4 circuits.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  synth::FmcfEnumerator enumerator(library);
  enumerator.run_to(4);
  const synth::WeightedSynthesizer dijkstra(library,
                                            gates::CostModel::unit());
  for (const auto& g : enumerator.g_set(4)) {
    EXPECT_EQ(dijkstra.minimal_cost(g), 4u) << g.to_cycle_string();
  }
}

TEST(Integration, GroupGeneratedByAllWitnessesAtCostSeven) {
  // All G[<=7] members live in the stabilizer of label 1 (order 5040), and
  // together they already generate the whole stabilizer.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  synth::FmcfEnumerator enumerator(library);
  enumerator.run_to(5);
  std::vector<perm::Permutation> members;
  for (unsigned k = 1; k <= 5; ++k) {
    for (const auto& g : enumerator.g_set(k)) members.push_back(g);
  }
  const perm::PermGroup generated(members);
  EXPECT_EQ(generated.order(), 5040u);
  EXPECT_TRUE(generated.fixes_point(1));
}

TEST(Integration, EndToEndProbabilisticPipeline) {
  // Synthesize a probabilistic circuit, verify the MV distribution against
  // the simulator, simplify it, and re-verify.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  // Redundant circuit with a coin: V, cancelling CNOT pair, another V.
  const gates::Cascade noisy =
      gates::Cascade::parse("VCA*FBC*FBC*VCA*VCA", 3);
  const gates::Cascade lean = synth::simplify(noisy);
  EXPECT_LT(lean.size(), noisy.size());
  EXPECT_TRUE(synth::same_full_semantics(noisy, lean));
  EXPECT_TRUE(sim::mv_model_matches_hilbert(lean, domain));
}

}  // namespace
}  // namespace qsyn
