// Randomized differential harness for the fused/batched simulation engine
// (sim/fused.h, sim/batch.h) against the gate-at-a-time oracle
// (StateVector::apply_cascade, sim::mv_model_matches_hilbert_reference),
// plus property tests for the block-fusion algebra and the content-addressed
// unitary cache.
//
// The fast path is only trusted because this suite hammers it: random
// cascades across wire counts, lengths, fuse blocks and thread counts must
// reproduce the oracle's amplitudes exactly (every reachable amplitude is
// a dyadic complex rational, so 1e-12 is loose — agreement is bit-for-bit).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/gate.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/permutation.h"
#include "sim/batch.h"
#include "sim/cross_check.h"
#include "sim/fused.h"
#include "sim/state_vector.h"
#include "sim/unitary.h"
#include "synth/specs.h"

namespace qsyn::sim {
namespace {

using gates::Cascade;
using gates::Gate;

Gate random_gate(Rng& rng, std::size_t wires, bool permutative_only) {
  const std::uint64_t kind = rng.below(permutative_only ? 2 : 4);
  const std::size_t target = rng.below(wires);
  if (kind == 0) return Gate::not_gate(target);
  std::size_t control = rng.below(wires - 1);
  if (control >= target) ++control;
  switch (kind) {
    case 1:
      return Gate::feynman(target, control);
    case 2:
      return Gate::ctrl_v(target, control);
    default:
      return Gate::ctrl_v_dagger(target, control);
  }
}

Cascade random_cascade(Rng& rng, std::size_t wires, std::size_t length,
                       bool permutative_only = false) {
  Cascade c(wires);
  for (std::size_t i = 0; i < length; ++i) {
    c.append(random_gate(rng, wires, permutative_only));
  }
  return c;
}

/// A random cascade over the library that stays reasonable gate by gate
/// (rejection per appended gate, so long cascades still generate quickly).
Cascade random_reasonable_cascade(Rng& rng, const gates::GateLibrary& library,
                                  std::size_t length) {
  Cascade c(library.domain().wires());
  for (std::size_t i = 0; i < length; ++i) {
    for (int tries = 0; tries < 64; ++tries) {
      Cascade extended = c;
      extended.append(library.gate(rng.below(library.size())));
      if (extended.is_reasonable(library.domain())) {
        c = std::move(extended);
        break;
      }
    }
  }
  return c;
}

double max_abs_diff(const la::Vector& a, const la::Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  double max = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max = std::max(max, std::abs(a[i] - b[i]));
  }
  return max;
}

la::Vector reference_amplitudes(const Cascade& cascade, std::uint32_t bits) {
  StateVector state = StateVector::basis(cascade.wires(), bits);
  state.apply_cascade(cascade);
  return state.amplitudes();
}

/// The classical permutation read off a fused cascade's unitary.
perm::Permutation fused_permutation(const FusedCascade& fused) {
  const std::vector<std::size_t> images =
      fused.unitary().extract_permutation(false, la::kDefaultTolerance);
  return perm::Permutation::from_images0(
      std::vector<std::uint32_t>(images.begin(), images.end()));
}

// --- the randomized differential suite --------------------------------------

TEST(FusedDifferential, RandomCascadesMatchReferenceExactly) {
  // ~200 random cascades spanning wire counts and lengths, each evaluated
  // on a random basis input, swept across the full fuse-block / thread-count
  // matrix. Every configuration must reproduce the reference amplitudes.
  Rng rng(20260729);
  constexpr std::size_t kCascades = 200;
  std::vector<Cascade> cascades;
  std::vector<SimJob> jobs;
  std::vector<la::Vector> expected;
  cascades.reserve(kCascades);
  for (std::size_t i = 0; i < kCascades; ++i) {
    const std::size_t wires = 2 + rng.below(4);  // 2..5
    const std::size_t length = rng.below(25);    // 0..24
    cascades.push_back(random_cascade(rng, wires, length));
  }
  for (const Cascade& c : cascades) {
    const auto bits = static_cast<std::uint32_t>(
        rng.below(std::uint64_t(1) << c.wires()));
    jobs.push_back(SimJob{&c, bits});
    expected.push_back(reference_amplitudes(c, bits));
  }

  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t fuse : {1u, 2u, 3u, 5u, 8u, 64u}) {
      SimOptions options;
      options.fuse_block = fuse;
      options.threads = threads;
      BatchSimulator sim(options);
      EXPECT_EQ(sim.threads(), threads);
      const std::vector<la::Vector> got = sim.run(jobs);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_LE(max_abs_diff(got[i], expected[i]), 1e-12)
            << "cascade " << cascades[i].to_string() << " fuse " << fuse
            << " threads " << threads;
      }
    }
  }
}

TEST(FusedDifferential, FusedApplyMatchesReference) {
  Rng rng(7);
  UnitaryCache cache;
  for (int i = 0; i < 50; ++i) {
    const std::size_t wires = 2 + rng.below(3);
    const Cascade c = random_cascade(rng, wires, rng.below(16));
    const auto bits =
        static_cast<std::uint32_t>(rng.below(std::uint64_t(1) << wires));
    const std::size_t fuse = 1 + rng.below(8);
    StateVector fused = StateVector::basis(wires, bits);
    FusedCascade(c, fuse, cache).apply(fused);
    EXPECT_LE(max_abs_diff(fused.amplitudes(), reference_amplitudes(c, bits)),
              1e-12);
  }
}

TEST(FusedDifferential, FusedUnitaryMatchesReferenceUnitary) {
  Rng rng(11);
  UnitaryCache cache;
  for (int i = 0; i < 40; ++i) {
    const std::size_t wires = 2 + rng.below(3);
    const Cascade c = random_cascade(rng, wires, rng.below(12));
    const std::size_t fuse = 1 + rng.below(6);
    const la::Matrix reference = cascade_unitary(c);
    const la::Matrix fused = FusedCascade(c, fuse, cache).unitary();
    EXPECT_LE(reference.max_abs_diff(fused), 1e-12) << c.to_string();
  }
}

TEST(FusedDifferential, ClassicalPermutationExtractionAgrees) {
  // Feynman/NOT-only cascades are always permutative; the fused extraction
  // must recover exactly the reference permutation.
  Rng rng(13);
  UnitaryCache cache;
  for (int i = 0; i < 50; ++i) {
    const std::size_t wires = 2 + rng.below(3);
    const Cascade c =
        random_cascade(rng, wires, rng.below(16), /*permutative_only=*/true);
    ASSERT_TRUE(is_permutative(c));
    const std::size_t fuse = 1 + rng.below(6);
    EXPECT_EQ(extract_classical_permutation(c),
              fused_permutation(FusedCascade(c, fuse, cache)))
        << c.to_string();
  }
  // Paper circuits for good measure.
  for (const Cascade& c : synth::toffoli_cascades_fig9()) {
    EXPECT_EQ(extract_classical_permutation(c),
              fused_permutation(FusedCascade(c, kDefaultFuseBlock, cache)));
  }
}

TEST(FusedDifferential, BatchedCrossCheckMatchesReferenceVerdicts) {
  // Reasonable random cascades must pass the soundness check on every
  // engine configuration, and per-cascade verdicts of the batched sweep
  // must equal the reference verdicts — including on *unreasonable*
  // cascades, where the check is expected to say false.
  Rng rng(17);
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);

  std::vector<Cascade> cascades;
  for (int i = 0; i < 30; ++i) {
    cascades.push_back(
        random_reasonable_cascade(rng, library, 1 + rng.below(10)));
  }
  cascades.push_back(Cascade::parse("VBA*VAB", 3));  // unreasonable
  cascades.push_back(Cascade(3));                    // empty
  std::vector<const Cascade*> pointers;
  for (const Cascade& c : cascades) pointers.push_back(&c);

  std::vector<char> expected;
  for (const Cascade* c : pointers) {
    expected.push_back(
        mv_model_matches_hilbert_reference(*c, domain, 1e-9) ? 1 : 0);
  }
  for (std::size_t i = 0; i + 2 < cascades.size(); ++i) {
    EXPECT_EQ(expected[i], 1)
        << "reasonable cascade failed the reference check: "
        << cascades[i].to_string();
  }
  EXPECT_EQ(expected[cascades.size() - 2], 0);

  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t fuse : {1u, 4u, 32u}) {
      SimOptions options;
      options.fuse_block = fuse;
      options.threads = threads;
      BatchSimulator sim(options);
      EXPECT_EQ(sim.check_mv_model(pointers, domain, 1e-9), expected)
          << "fuse " << fuse << " threads " << threads;
    }
  }
}

TEST(FusedDifferential, ApplyToBasisColumnsEqualsUnitaryColumns) {
  const Cascade c = synth::peres_cascade_fig4();
  UnitaryCache cache;
  const FusedCascade fused(c, 2, cache);  // two blocks: the batched product
  const std::vector<StateVector> outputs =
      fused.apply_to_basis_columns({0, 1, 2, 3, 4, 5, 6, 7});
  const la::Matrix u = cascade_unitary(c);
  ASSERT_EQ(outputs.size(), 8u);
  for (std::uint32_t j = 0; j < 8; ++j) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_LE(std::abs(outputs[j].amplitudes()[i] - u(i, j)), 1e-12);
    }
  }
}

// --- block-fusion algebra ----------------------------------------------------

TEST(FusionAlgebra, TrivialFusionsAreIdentityEquivalent) {
  Rng rng(23);
  UnitaryCache cache;
  const Cascade c = random_cascade(rng, 3, 9);
  const la::Matrix reference = cascade_unitary(c);

  // Block size 1: one block per gate.
  const FusedCascade per_gate(c, 1, cache);
  EXPECT_EQ(per_gate.block_count(), c.size());
  EXPECT_LE(reference.max_abs_diff(per_gate.unitary()), 1e-12);

  // Block size >= cascade length: a single block.
  const FusedCascade whole(c, c.size(), cache);
  EXPECT_EQ(whole.block_count(), 1u);
  EXPECT_LE(reference.max_abs_diff(whole.unitary()), 1e-12);
  const FusedCascade beyond(c, c.size() * 10, cache);
  EXPECT_EQ(beyond.block_count(), 1u);
  EXPECT_LE(reference.max_abs_diff(beyond.unitary()), 1e-12);
}

TEST(FusionAlgebra, EmptyCascadeFusesToIdentity) {
  UnitaryCache cache;
  const Cascade empty(3);
  const FusedCascade fused(empty, 4, cache);
  EXPECT_EQ(fused.block_count(), 0u);
  EXPECT_TRUE(fused.unitary().is_identity());
  StateVector state = StateVector::basis(3, 5);
  fused.apply(state);
  EXPECT_NEAR(state.probability_of(5), 1.0, 1e-12);
  EXPECT_EQ(cache.size(), 0u);  // nothing to fold

  // The batch engine handles empty cascades too.
  BatchSimulator sim;
  const std::vector<la::Vector> out = sim.run({SimJob{&empty, 6}});
  EXPECT_NEAR(std::abs(out[0][6]), 1.0, 1e-12);
}

TEST(FusionAlgebra, FuseBlockZeroIsRejectedByFusedCascade) {
  UnitaryCache cache;
  const Cascade c = Cascade::parse("VBA*FCA", 3);
  EXPECT_THROW((void)FusedCascade(c, 0, cache), qsyn::LogicError);
}

TEST(FusionAlgebra, CacheSharesEqualBlocksAcrossCascades) {
  // The same two-gate block opens two otherwise different cascades: the
  // cache must hand both the *same* matrix object.
  UnitaryCache cache;
  const Cascade a = Cascade::parse("VBA*FCA*VCB*V+BA", 3);
  const Cascade b = Cascade::parse("VBA*FCA*FAB*FBA", 3);
  const FusedCascade fused_a(a, 2, cache);
  const FusedCascade fused_b(b, 2, cache);
  ASSERT_EQ(fused_a.block_count(), 2u);
  ASSERT_EQ(fused_b.block_count(), 2u);
  EXPECT_EQ(fused_a.block_matrix(0).get(), fused_b.block_matrix(0).get());
  EXPECT_NE(fused_a.block_matrix(1).get(), fused_b.block_matrix(1).get());
  EXPECT_EQ(cache.size(), 3u);  // shared prefix + two distinct tails
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 1u);

  // Re-folding is pure cache traffic.
  const FusedCascade again(a, 2, cache);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(again.block_matrix(0).get(), fused_a.block_matrix(0).get());
}

TEST(FusionAlgebra, DuplicateFoldRaceCountsAsMissNotHit) {
  // Regression: a fold() that loses the publish race (another fold of the
  // same block completed while this one was folding outside the lock) used
  // to count as a *hit*, inflating serving hit-rates by exactly the
  // contended folds — even though the full fold work was done and thrown
  // away. The fold hook reproduces the race deterministically: it fires
  // after the matrix is computed but before the publish lock is re-taken,
  // and folds the same block to completion from inside that window.
  UnitaryCache cache;
  const Cascade c = Cascade::parse("VBA*FCA", 3);
  bool raced = false;
  cache.set_fold_hook([&] {
    if (raced) return;  // only the outer fold loses; the inner one publishes
    raced = true;
    const FusedCascade inner(c, 2, cache);
  });
  const FusedCascade outer(c, 2, cache);
  ASSERT_TRUE(raced);

  const UnitaryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);  // both fold() calls did the fold work
  EXPECT_EQ(stats.duplicate_folds, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // hits + misses == completed fold() calls: the snapshot invariant.
  EXPECT_EQ(stats.hits + stats.misses, 2u);
  // The loser is handed the published matrix, not its own discarded fold.
  const FusedCascade again(c, 2, cache);
  EXPECT_EQ(again.block_matrix(0).get(), outer.block_matrix(0).get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(FusionAlgebra, EqualBlocksOnDifferentWireCountsAreDistinct) {
  // Same gates, different wire count: different unitaries, so the content
  // key must include the wire count.
  UnitaryCache cache;
  const Cascade narrow = Cascade::parse("VBA*FBA", 2);
  const Cascade wide = Cascade::parse("VBA*FBA", 3);
  const FusedCascade fused_narrow(narrow, 2, cache);
  const FusedCascade fused_wide(wide, 2, cache);
  EXPECT_NE(fused_narrow.block_matrix(0).get(),
            fused_wide.block_matrix(0).get());
  EXPECT_EQ(fused_narrow.block(0).rows(), 4u);
  EXPECT_EQ(fused_wide.block(0).rows(), 8u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FusionAlgebra, FullCacheStillFoldsCorrectlyWithoutStoring) {
  // The capacity bound degrades the cache to a pass-through, never to a
  // wrong answer.
  UnitaryCache tiny(/*max_bytes=*/1);
  const Cascade c = Cascade::parse("VBA*FCA*VCB", 3);
  const FusedCascade first(c, 2, tiny);
  const FusedCascade second(c, 2, tiny);
  EXPECT_EQ(tiny.size(), 0u);
  EXPECT_EQ(tiny.bytes(), 0u);
  EXPECT_EQ(tiny.hits(), 0u);
  EXPECT_EQ(tiny.misses(), 4u);  // every fold recomputed, none stored
  EXPECT_NE(first.block_matrix(0).get(), second.block_matrix(0).get());
  EXPECT_LE(cascade_unitary(c).max_abs_diff(first.unitary()), 1e-12);
  EXPECT_LE(cascade_unitary(c).max_abs_diff(second.unitary()), 1e-12);

  // A default-capacity cache stores those same blocks (8x8 complex = 1 KiB
  // each) and reports its footprint.
  UnitaryCache cache;
  const FusedCascade fused(c, 2, cache);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 2u * 8 * 8 * sizeof(la::Complex));
}

TEST(FusionAlgebra, BlocksAreUnitary) {
  Rng rng(29);
  UnitaryCache cache;
  for (int i = 0; i < 10; ++i) {
    const Cascade c = random_cascade(rng, 3, 3 + rng.below(10));
    const FusedCascade fused(c, 3, cache);
    for (std::size_t b = 0; b < fused.block_count(); ++b) {
      EXPECT_TRUE(fused.block(b).is_unitary());
    }
  }
}

// --- engine plumbing ---------------------------------------------------------

TEST(BatchEngine, MixedWireCountJobsInOneBatch) {
  const Cascade two = Cascade::parse("VBA*FAB", 2);
  const Cascade three = synth::peres_cascade_fig4();
  BatchSimulator sim;
  const std::vector<la::Vector> out =
      sim.run({SimJob{&two, 3}, SimJob{&three, 7}, SimJob{&two, 0}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].size(), 4u);
  EXPECT_EQ(out[1].size(), 8u);
  EXPECT_LE(max_abs_diff(out[0], reference_amplitudes(two, 3)), 1e-12);
  EXPECT_LE(max_abs_diff(out[1], reference_amplitudes(three, 7)), 1e-12);
  EXPECT_LE(max_abs_diff(out[2], reference_amplitudes(two, 0)), 1e-12);
}

TEST(BatchEngine, RepeatedCascadeFoldsOncePerBatchAndOncePerCache) {
  const Cascade c = synth::peres_cascade_fig4();
  SimOptions options;
  options.fuse_block = 2;
  options.threads = 1;
  BatchSimulator sim(options);
  std::vector<SimJob> jobs;
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    jobs.push_back(SimJob{&c, bits});
  }
  (void)sim.run(jobs);
  const std::size_t misses_after_first = sim.cache().misses();
  EXPECT_EQ(misses_after_first, 2u);  // 4 gates, blocks of 2
  (void)sim.run(jobs);
  EXPECT_EQ(sim.cache().misses(), misses_after_first);  // warm: zero folds
}

TEST(BatchEngine, FuseBlockZeroIsRejectedAtConstruction) {
  SimOptions options;
  options.fuse_block = 0;
  EXPECT_THROW((void)BatchSimulator(options), qsyn::LogicError);
}

TEST(BatchEngine, RejectsNullCascadeJobs) {
  BatchSimulator sim;
  EXPECT_THROW((void)sim.run({SimJob{}}), qsyn::LogicError);
}

TEST(BatchEngine, EmptyBatchIsFine) {
  BatchSimulator sim;
  EXPECT_TRUE(sim.run({}).empty());
  EXPECT_TRUE(
      sim.check_mv_model({}, mvl::PatternDomain::reduced(3)).empty());
}

TEST(BatchEngine, FromAmplitudesValidatesDimension) {
  EXPECT_THROW((void)StateVector::from_amplitudes(la::Vector(3)),
               qsyn::LogicError);
  EXPECT_THROW((void)StateVector::from_amplitudes(la::Vector(1)),
               qsyn::LogicError);
  const StateVector s = StateVector::from_amplitudes(la::Vector::basis(8, 2));
  EXPECT_EQ(s.wires(), 3u);
  EXPECT_NEAR(s.probability_of(2), 1.0, 1e-12);
}

TEST(BatchEngine, WireMismatchedDomainFailsCheck) {
  BatchSimulator sim;
  const Cascade c = Cascade::parse("VBA", 2);
  EXPECT_FALSE(
      sim.check_mv_model_one(c, mvl::PatternDomain::reduced(3)));
}

}  // namespace
}  // namespace qsyn::sim
