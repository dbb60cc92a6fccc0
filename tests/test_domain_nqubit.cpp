// The n-qubit generalization suite: property tests for the NQubitDomain /
// GateLibrary::standard(n) construction at n = 2..5, golden fixtures pinning
// standard(3) to the paper's hard-coded 3-qubit artifacts (gate order,
// packed words, class numbering, label codes, banned sets), a randomized
// differential check that every library gate's fused-engine unitary realizes
// the multi-valued permutation model, and wide-domain regressions for the
// closure layers (two-byte label stores, 256-bit G-keys, restricted
// libraries at n != 3), and minimal probabilistic synthesis at n = 2..5.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "automata/prob_synth.h"
#include "automata/qrng.h"
#include "common/error.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "la/matrix.h"
#include "mvl/domain.h"
#include "mvl/nqubit.h"
#include "perm/permutation.h"
#include "sim/batch.h"
#include "sim/fused.h"
#include "sim/unitary.h"
#include "synth/fmcf.h"
#include "synth/mce.h"

namespace qsyn {
namespace {

// --- library shape properties (n = 2..5) -----------------------------------

TEST(NQubitDomain, SizesMatchClosedForms) {
  const std::size_t expected_labels[4] = {8, 38, 176, 782};
  const std::size_t expected_gates[4] = {6, 18, 36, 60};
  for (std::size_t n = 2; n <= 5; ++n) {
    const mvl::NQubitDomain nq(n);
    EXPECT_EQ(nq.wires(), n);
    EXPECT_EQ(nq.size(), expected_labels[n - 2]);
    EXPECT_EQ(nq.size(), mvl::NQubitDomain::reduced_size(n));
    EXPECT_EQ(nq.binary_count(), std::size_t(1) << n);
    EXPECT_EQ(nq.library_size(), expected_gates[n - 2]);
    EXPECT_EQ(nq.library_size(),
              n * nq.gates_per_control_class() +
                  nq.feynman_class_count() *
                      mvl::NQubitDomain::gates_per_feynman_class());
    EXPECT_EQ(nq.num_classes(),
              nq.control_class_count() + nq.feynman_class_count());
  }
}

TEST(NQubitLibrary, StandardEmitsTheFormulaGateCount) {
  for (std::size_t n = 2; n <= 5; ++n) {
    const mvl::NQubitDomain nq(n);
    const gates::GateLibrary library = gates::GateLibrary::standard(nq);
    EXPECT_EQ(library.size(), nq.library_size());
    EXPECT_EQ(library.size(), 3 * n * (n - 1));
    // Each control class carries 2(n-1) gates, each Feynman class 2.
    for (std::size_t w = 0; w < n; ++w) {
      EXPECT_EQ(library.control_subset(w).size(),
                nq.gates_per_control_class());
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        EXPECT_EQ(library.feynman_subset(a, b).size(), 2u);
      }
    }
    EXPECT_EQ(library.controlled_indices().size(), 2 * n * (n - 1));
    EXPECT_EQ(library.feynman_indices().size(), n * (n - 1));
    // The adjoint involution stays inside the library at every width.
    for (std::size_t i = 0; i < library.size(); ++i) {
      EXPECT_EQ(library.adjoint_index(library.adjoint_index(i)), i);
    }
  }
}

TEST(NQubitLibrary, StandardOwnsItsDomain) {
  // The factory's library must stay valid with no external domain alive.
  const gates::GateLibrary library = gates::GateLibrary::standard(4);
  EXPECT_EQ(library.domain().wires(), 4u);
  EXPECT_EQ(library.domain().size(), 176u);
  EXPECT_EQ(library.permutation(0).degree(), 176u);
  // restricted_to keeps the parent's domain alive too.
  const gates::GateLibrary tiny =
      library.restricted_to(library.feynman_subset(0, 1));
  EXPECT_EQ(tiny.domain().size(), 176u);
  EXPECT_EQ(tiny.size(), 2u);
}

TEST(NQubitLibrary, LabelTablesMatchThePermutations) {
  // The 0-based tables the engines read agree with the 1-based
  // permutations, restricted_to slices them, and an adjoint the restricted
  // library lacks reads as size().
  for (std::size_t n = 2; n <= 5; ++n) {
    const gates::GateLibrary library = gates::GateLibrary::standard(n);
    const mvl::PatternDomain& domain = library.domain();
    const std::vector<std::size_t> picked = {library.size() - 1, 0, 3};
    const gates::GateLibrary tiny = library.restricted_to(picked);
    for (std::size_t i = 0; i < library.size(); ++i) {
      for (std::uint32_t label = 1; label <= domain.size(); ++label) {
        const std::uint16_t image = library.table(i)[label - 1];
        ASSERT_EQ(image + 1u, library.permutation(i).apply(label));
        ASSERT_EQ(library.inverse_table(i)[image], label - 1);
      }
      EXPECT_EQ(library.class_bit(i), 1u << library.banned_class_of(i));
    }
    for (std::size_t j = 0; j < picked.size(); ++j) {
      EXPECT_TRUE(std::equal(tiny.table(j), tiny.table(j) + domain.size(),
                             library.table(picked[j])));
      EXPECT_TRUE(std::equal(tiny.inverse_table(j),
                             tiny.inverse_table(j) + domain.size(),
                             library.inverse_table(picked[j])));
      EXPECT_EQ(tiny.class_bit(j), library.class_bit(picked[j]));
    }
    // Gate 0 (V on control A) and gate 1 (its adjoint) are paired in the
    // standard library; the restricted one holds gate 0 alone.
    EXPECT_EQ(library.adjoint_index(0), 1u);
    EXPECT_EQ(tiny.adjoint_index(1), tiny.size());
  }
}

TEST(NQubitDomain, BannedOfIsTheOrOfTheBinaryImagesMasks) {
  for (std::size_t n = 2; n <= 5; ++n) {
    const mvl::PatternDomain domain = mvl::PatternDomain::reduced(n);
    std::vector<std::uint16_t> images(domain.binary_count());
    // Every window of 2^n consecutive labels across the domain.
    for (std::size_t start = 0; start + images.size() <= domain.size();
         ++start) {
      std::uint32_t expected = 0;
      for (std::size_t s = 0; s < images.size(); ++s) {
        images[s] = static_cast<std::uint16_t>(start + s);
        expected |= domain.banned_mask(static_cast<std::uint32_t>(start + s) +
                                       1);
      }
      ASSERT_EQ(domain.banned_of(images.data()), expected);
    }
  }
}

TEST(NQubitLibrary, BannedClassesAreConsistentWithClassMask) {
  for (std::size_t n = 2; n <= 5; ++n) {
    const mvl::NQubitDomain nq(n);
    const gates::GateLibrary library = gates::GateLibrary::standard(nq);
    const mvl::PatternDomain& domain = nq.domain();
    for (std::size_t i = 0; i < library.size(); ++i) {
      const gates::Gate& gate = library.gate(i);
      const mvl::BannedClass expected =
          gate.kind() == gates::GateKind::kFeynman
              ? nq.feynman_class(std::min(gate.target(), gate.control()),
                                 std::max(gate.target(), gate.control()))
              : nq.control_class(gate.control());
      EXPECT_EQ(library.banned_class_of(i), expected) << gate.name();
      ASSERT_TRUE(gate.banned_class(domain).has_value());
      EXPECT_EQ(*gate.banned_class(domain), expected);
      // Banned labels are exactly the gate's blind spot: a mixed control
      // (or mixed Feynman wire) leaves the pattern unchanged, so every
      // label carrying the gate's class bit must be a fixed point of the
      // gate's permutation.
      const perm::Permutation& p = library.permutation(i);
      for (std::uint32_t label = 1; label <= domain.size(); ++label) {
        if ((nq.class_mask(label) >> expected & 1u) != 0) {
          EXPECT_EQ(p.apply(label), label)
              << gate.name() << " moves banned label " << label;
        }
      }
    }
  }
}

TEST(NQubitDomain, ClassMaskMatchesBannedSets) {
  for (std::size_t n = 2; n <= 5; ++n) {
    const mvl::NQubitDomain nq(n);
    const mvl::PatternDomain& domain = nq.domain();
    for (mvl::BannedClass c = 0; c < domain.num_classes(); ++c) {
      std::vector<std::uint32_t> from_mask;
      for (std::uint32_t label = 1; label <= domain.size(); ++label) {
        EXPECT_EQ(nq.class_mask(label), domain.banned_mask(label));
        if ((nq.class_mask(label) >> c & 1u) != 0) from_mask.push_back(label);
      }
      EXPECT_EQ(from_mask, domain.banned_set(c));
    }
  }
}

TEST(NQubitDomain, ClassNamesRoundTrip) {
  for (std::size_t n = 2; n <= 5; ++n) {
    const mvl::NQubitDomain nq(n);
    for (mvl::BannedClass c = 0; c < nq.num_classes(); ++c) {
      EXPECT_EQ(nq.class_from_name(nq.class_name(c)), c) << nq.class_name(c);
    }
  }
  const mvl::NQubitDomain nq(3);
  EXPECT_EQ(nq.class_name(nq.control_class(0)), "N_A");
  EXPECT_EQ(nq.class_name(nq.feynman_class(1, 2)), "N_BC");
  EXPECT_THROW((void)nq.class_from_name("N_"), qsyn::ParseError);
  EXPECT_THROW((void)nq.class_from_name("M_A"), qsyn::ParseError);
  EXPECT_THROW((void)nq.class_from_name("N_D"), qsyn::ParseError);  // no wire D
  EXPECT_THROW((void)nq.class_from_name("N_BA"), qsyn::ParseError);  // order
  EXPECT_THROW((void)nq.class_from_name("N_ABC"), qsyn::ParseError);
}

TEST(NQubitDomain, LabelsRoundTripThroughPatterns) {
  for (std::size_t n = 2; n <= 5; ++n) {
    const mvl::NQubitDomain nq(n);
    const mvl::PatternDomain& domain = nq.domain();
    for (std::uint32_t label = 1; label <= domain.size(); ++label) {
      EXPECT_EQ(domain.label_of(domain.pattern(label)), label);
    }
    // Binary labels come first, in binary-value order.
    for (std::uint32_t label = 1; label <= nq.binary_count(); ++label) {
      EXPECT_TRUE(domain.pattern(label).is_binary());
      EXPECT_EQ(domain.pattern(label).binary_value(), label - 1);
    }
  }
}

// --- golden fixtures: standard(3) == the legacy 3-qubit library ------------

TEST(Golden3Qubit, FactoryMatchesLegacyConstructionExactly) {
  const mvl::PatternDomain legacy_domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary legacy(legacy_domain);
  const gates::GateLibrary standard = gates::GateLibrary::standard(3);
  ASSERT_EQ(standard.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(standard.gate(i), legacy.gate(i));
    EXPECT_EQ(standard.permutation(i), legacy.permutation(i));
    EXPECT_EQ(standard.banned_class_of(i), legacy.banned_class_of(i));
  }
  ASSERT_EQ(standard.domain().size(), legacy_domain.size());
  for (std::uint32_t label = 1; label <= legacy_domain.size(); ++label) {
    EXPECT_EQ(standard.domain().pattern(label), legacy_domain.pattern(label));
    EXPECT_EQ(standard.domain().banned_mask(label),
              legacy_domain.banned_mask(label));
  }
}

TEST(Golden3Qubit, GateOrderNamesAndPackedWords) {
  const gates::GateLibrary library = gates::GateLibrary::standard(3);
  const char* const kNames[18] = {
      "VBA", "V+BA", "VCA", "V+CA", "VAB", "V+AB", "VCB", "V+CB", "VAC",
      "V+AC", "VBC", "V+BC", "FAB", "FBA", "FAC", "FCA", "FBC", "FCB"};
  const std::uint32_t kPacked[18] = {
      0x00000004u, 0x00000005u, 0x00000008u, 0x00000009u, 0x00020000u,
      0x00020001u, 0x00020008u, 0x00020009u, 0x00040000u, 0x00040001u,
      0x00040004u, 0x00040005u, 0x00020002u, 0x00000006u, 0x00040002u,
      0x0000000au, 0x00040006u, 0x0002000au};
  const mvl::BannedClass kClasses[18] = {0, 0, 0, 0, 1, 1, 1, 1, 2,
                                         2, 2, 2, 3, 3, 4, 4, 5, 5};
  ASSERT_EQ(library.size(), 18u);
  for (std::size_t i = 0; i < 18; ++i) {
    EXPECT_EQ(library.gate(i).name(), kNames[i]) << "index " << i;
    EXPECT_EQ(library.gate(i).packed(), kPacked[i]) << "index " << i;
    EXPECT_EQ(library.banned_class_of(i), kClasses[i]) << "index " << i;
    EXPECT_EQ(library.index_of(kNames[i]), i);
  }
  // The paper's printed cycle form of V_BA (gate 0).
  EXPECT_EQ(library.permutation(0).to_cycle_string(),
            "(5,17,7,21)(6,18,8,22)(13,19,15,23)(14,20,16,24)");
}

TEST(Golden3Qubit, DomainLabelCodesAndBannedSets) {
  const mvl::NQubitDomain nq(3);
  const mvl::PatternDomain& domain = nq.domain();
  // Base-4 codes of labels 1..38 — the paper's label ordering verbatim.
  const std::uint32_t kCodes[38] = {
      0,  1,  4,  5,  16, 17, 20, 21, 6,  7,  9,  13, 18, 19, 22, 23, 24, 25,
      26, 27, 28, 29, 30, 31, 33, 36, 37, 38, 39, 41, 45, 49, 52, 53, 54, 55,
      57, 61};
  ASSERT_EQ(domain.size(), 38u);
  for (std::size_t i = 0; i < 38; ++i) {
    EXPECT_EQ(domain.pattern(static_cast<std::uint32_t>(i + 1)).code(),
              kCodes[i])
        << "label " << (i + 1);
  }
  EXPECT_EQ(domain.pattern(1).to_string(), "0,0,0");
  EXPECT_EQ(domain.pattern(9).to_string(), "0,1,V0");
  EXPECT_EQ(domain.pattern(38).to_string(), "V1,V1,1");
  // The paper's banned sets N_A .. N_BC.
  const std::vector<std::uint32_t> kNA = {25, 26, 27, 28, 29, 30, 31,
                                          32, 33, 34, 35, 36, 37, 38};
  const std::vector<std::uint32_t> kNB = {11, 12, 17, 18, 19, 20, 21,
                                          22, 23, 24, 30, 31, 37, 38};
  const std::vector<std::uint32_t> kNC = {9,  10, 13, 14, 15, 16, 19,
                                          20, 23, 24, 28, 29, 35, 36};
  EXPECT_EQ(domain.banned_set(nq.class_from_name("N_A")), kNA);
  EXPECT_EQ(domain.banned_set(nq.class_from_name("N_B")), kNB);
  EXPECT_EQ(domain.banned_set(nq.class_from_name("N_C")), kNC);
  const auto union_of = [](const std::vector<std::uint32_t>& a,
                           const std::vector<std::uint32_t>& b) {
    std::vector<std::uint32_t> out;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
  };
  EXPECT_EQ(domain.banned_set(nq.class_from_name("N_AB")), union_of(kNA, kNB));
  EXPECT_EQ(domain.banned_set(nq.class_from_name("N_AC")), union_of(kNA, kNC));
  EXPECT_EQ(domain.banned_set(nq.class_from_name("N_BC")), union_of(kNB, kNC));
}

// --- randomized differential: fused engine vs the perm-level model ---------

/// A random reasonable cascade over the library: each step appends a gate
/// whose banned set misses the current image of the binary inputs (the same
/// pruning rule the FMCF closure applies).
gates::Cascade random_reasonable_cascade(Rng& rng,
                                         const gates::GateLibrary& library,
                                         std::size_t length) {
  const mvl::PatternDomain& domain = library.domain();
  gates::Cascade cascade(domain.wires());
  std::vector<std::uint32_t> image = domain.s_set();
  for (std::size_t step = 0; step < length; ++step) {
    std::uint32_t banned = 0;
    for (const std::uint32_t label : image) banned |= domain.class_mask(label);
    std::vector<std::size_t> candidates;
    for (std::size_t g = 0; g < library.size(); ++g) {
      if ((banned >> library.banned_class_of(g) & 1u) == 0) {
        candidates.push_back(g);
      }
    }
    if (candidates.empty()) break;
    const std::size_t g = candidates[rng.below(candidates.size())];
    cascade.append(library.gate(g));
    for (std::uint32_t& label : image) {
      label = library.permutation(g).apply(label);
    }
  }
  return cascade;
}

TEST(NQubitDifferential, LibraryPermutationsMatchMultiValuedGateAction) {
  // The perm/ model of each gate is exactly its multi-valued action on the
  // domain labels — at every width, including 5 wires.
  for (std::size_t n = 2; n <= 5; ++n) {
    const gates::GateLibrary library = gates::GateLibrary::standard(n);
    const mvl::PatternDomain& domain = library.domain();
    for (std::size_t g = 0; g < library.size(); ++g) {
      const perm::Permutation& p = library.permutation(g);
      for (std::uint32_t label = 1; label <= domain.size(); ++label) {
        EXPECT_EQ(p.apply(label),
                  domain.label_of(library.gate(g).apply(domain.pattern(label))))
            << library.gate(g).name() << " at n=" << n;
      }
    }
  }
}

TEST(NQubitDifferential, EveryLibraryGateRealizesItsPermModelFused) {
  // Fused engine vs the perm/ model, gate by gate: the Hilbert-space output
  // of every binary input must be the product state the multi-valued model
  // (= the cached library permutation) predicts.
  for (std::size_t n = 2; n <= 4; ++n) {
    sim::SimOptions options;
    options.fuse_block = 2;
    options.threads = 1;
    sim::BatchSimulator engine(options);
    const gates::GateLibrary library = gates::GateLibrary::standard(n);
    for (std::size_t g = 0; g < library.size(); ++g) {
      gates::Cascade cascade(n);
      cascade.append(library.gate(g));
      EXPECT_TRUE(engine.check_mv_model_one(cascade, library.domain(), 1e-12))
          << library.gate(g).name() << " at n=" << n;
    }
  }
}

TEST(NQubitDifferential, RandomReasonableCascadesFusedVsPermModel) {
  Rng rng(20260730);
  for (std::size_t n = 2; n <= 4; ++n) {
    const gates::GateLibrary library = gates::GateLibrary::standard(n);
    const mvl::PatternDomain& domain = library.domain();
    sim::SimOptions options;
    options.fuse_block = 3;
    options.threads = 1;
    sim::BatchSimulator engine(options);
    sim::UnitaryCache cache;
    const std::size_t trials = n == 4 ? 12 : 25;
    const std::size_t max_len = n == 4 ? 6 : 10;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      const gates::Cascade cascade = random_reasonable_cascade(
          rng, library, 1 + rng.below(max_len));
      ASSERT_TRUE(cascade.is_reasonable(domain));
      EXPECT_TRUE(engine.check_mv_model_one(cascade, domain, 1e-12))
          << cascade.to_string();
      if (!cascade.is_binary_preserving()) continue;
      // Binary-preserving cascades additionally pin the classical
      // permutation: fused extraction == the perm-level restriction, and
      // the fused unitary is exactly that permutation matrix.
      const perm::Permutation restricted = cascade.to_binary_permutation();
      const la::Matrix fused =
          sim::FusedCascade(cascade, options.fuse_block, cache).unitary();
      const std::vector<std::size_t> images =
          fused.extract_permutation(false, 1e-12);
      EXPECT_EQ(perm::Permutation::from_images0(
                    std::vector<std::uint32_t>(images.begin(), images.end())),
                restricted)
          << cascade.to_string();
      EXPECT_TRUE(fused.approx_equal(
          sim::permutation_unitary(restricted.extended_to(images.size()), n),
          1e-12))
          << cascade.to_string();
    }
  }
}

// --- wide-domain closure regressions ---------------------------------------

TEST(NQubitClosure, FourWireLevelCountsArePinned) {
  const gates::GateLibrary library = gates::GateLibrary::standard(4);
  synth::ClosureConfig options;
  options.track_witnesses = false;
  synth::FmcfEnumerator e(library, options);
  e.run_to(2);
  EXPECT_EQ(e.stats()[0].frontier, 36u);
  EXPECT_EQ(e.stats()[0].g_new, 12u);  // the 12 four-wire CNOTs
  EXPECT_EQ(e.stats()[1].frontier, 684u);
  EXPECT_EQ(e.stats()[1].g_new, 96u);
}

TEST(NQubitClosure, FiveWireClosureRunsOnTwoByteStores) {
  // 782 labels force the two-byte label rows and the 256-bit G-keys.
  const gates::GateLibrary library = gates::GateLibrary::standard(5);
  synth::ClosureConfig options;
  options.track_witnesses = false;
  synth::FmcfEnumerator e(library, options);
  e.run_to(2);
  EXPECT_EQ(e.stats()[0].frontier, 60u);
  EXPECT_EQ(e.stats()[0].g_new, 20u);  // the 20 five-wire CNOTs
  EXPECT_EQ(e.stats()[1].frontier, 1920u);
  EXPECT_EQ(e.stats()[1].g_new, 260u);
  // G[1] really is the CNOT set, decoded back out of the wide keys.
  const auto g1 = e.g_set(1);
  ASSERT_EQ(g1.size(), 20u);
  std::vector<perm::Permutation> expected;
  for (const std::size_t g : library.feynman_indices()) {
    gates::Cascade c(5);
    c.append(library.gate(g));
    expected.push_back(c.to_binary_permutation());
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(g1, expected);
}

TEST(NQubitClosure, FiveWireWitnessBackWalkWorks) {
  const gates::GateLibrary library = gates::GateLibrary::standard(5);
  synth::FmcfEnumerator e(library);  // witnesses on
  e.run_to(2);
  for (unsigned k = 1; k <= 2; ++k) {
    std::size_t checked = 0;
    for (const auto& g : e.g_set(k)) {
      if (++checked > 8) break;
      const auto entry = e.find(g);
      ASSERT_TRUE(entry.has_value());
      const gates::Cascade witness = e.witness(*entry);
      EXPECT_EQ(witness.size(), k);
      EXPECT_TRUE(witness.is_reasonable(library.domain()));
      EXPECT_EQ(witness.to_binary_permutation(), g);
    }
  }
}

TEST(NQubitClosure, RestrictedLibrariesSaturateAtTwoAndFourWires) {
  // Regression for the 3-wire-literal audit: restricted libraries over
  // non-3-wire domains must derive every bound (class counts, widths, key
  // sizes) from the domain.
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}}) {
    const gates::GateLibrary full = gates::GateLibrary::standard(n);
    const gates::GateLibrary tiny =
        full.restricted_to(full.feynman_subset(0, 1));
    EXPECT_EQ(tiny.domain().wires(), n);
    synth::FmcfEnumerator e(tiny);
    e.run_to(64);  // must saturate, not crash
    EXPECT_TRUE(e.saturated());
    EXPECT_LT(e.levels_done(), 64u);
    // The closure of one Feynman pair is GL(2,2) on the pair's wires:
    // 6 reachable permutations at every width.
    EXPECT_EQ(e.seen_count(), 6u);
  }
}

TEST(NQubitClosure, McExpressorSynthesizesAcrossWidths) {
  // n = 2: SWAP needs the classic three CNOTs.
  {
    const gates::GateLibrary library = gates::GateLibrary::standard(2);
    synth::McExpressor mce(library, 7);
    const auto swap2 = perm::Permutation::from_cycles("(2,3)", 4);
    const auto result = mce.synthesize(swap2);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->cost, 3u);
    EXPECT_EQ(result->circuit.to_binary_permutation(), swap2);
    EXPECT_EQ(mce.count_sequences(swap2, 3), 2u);  // FAB*FBA*FAB, FBA*FAB*FBA
  }
  // n = 4: a single CNOT synthesizes at cost 1 over the 176-label domain.
  {
    const gates::GateLibrary library = gates::GateLibrary::standard(4);
    synth::McExpressor mce(library, 2);
    gates::Cascade cnot(4);
    cnot.append(gates::Gate::feynman(2, 0));
    const auto target = cnot.to_binary_permutation();
    const auto result = mce.synthesize(target);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->cost, 1u);
    EXPECT_EQ(result->circuit.to_binary_permutation(), target);
  }
}

// --- probabilistic synthesis across widths -------------------------------

TEST(NQubitProbSynth, ControlledCoinIsOneGateAtEveryWidth) {
  // The coin on the last wire when wire A is 1 is a single controlled-V
  // with target the last wire, control A. At 5 wires its image of binary
  // label 16 is label 264, past what a one-byte label row can hold.
  const char* const expected[] = {"VBA", "VCA", "VDA", "VEA"};
  for (std::size_t n = 2; n <= 5; ++n) {
    const auto library = gates::GateLibrary::standard(n);
    const automata::ProbSynthesizer synthesizer(library, 1);
    const auto cascade =
        synthesizer.synthesize(automata::controlled_coin_spec(n));
    ASSERT_TRUE(cascade.has_value()) << "n = " << n;
    EXPECT_EQ(*cascade, gates::Cascade::parse(expected[n - 2], n))
        << "n = " << n;
  }
}

}  // namespace
}  // namespace qsyn
