// Tests for the wire-relabeling symmetry the FMCF closure runs its orbits
// over (synth/wire_symmetry.h): the detected group, the canonicalizer
// against a brute-force minimum, and the closure itself — frontiers, G
// witnesses and implementation lists — against a naive full-row closure
// with no shards and no symmetry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "gates/library.h"
#include "mvl/domain.h"
#include "synth/flat_perm_store.h"
#include "synth/fmcf.h"
#include "synth/wire_symmetry.h"

namespace qsyn::synth {
namespace {

using Labels = std::vector<std::uint16_t>;

Labels labels_of(const FlatPermStore& store, std::size_t i) {
  Labels row(store.width());
  for (std::size_t s = 0; s < row.size(); ++s) {
    row[s] = static_cast<std::uint16_t>(store.label(i, s));
  }
  return row;
}

std::size_t factorial(std::size_t n) {
  return n <= 1 ? 1 : n * factorial(n - 1);
}

/// The library over `domain` without the controlled gates whose control is
/// wire 0 (the class L_A).
gates::GateLibrary without_control_class_a(const gates::GateLibrary& full) {
  const std::vector<std::size_t> dropped = full.control_subset(0);
  std::vector<std::size_t> kept;
  for (std::size_t g = 0; g < full.size(); ++g) {
    bool drop = false;
    for (const std::size_t d : dropped) drop = drop || d == g;
    if (!drop) kept.push_back(g);
  }
  return full.restricted_to(kept);
}

/// A naive FMCF closure: full rows in a std::set, no shards, no spill, no
/// symmetry. Returns B[0..max_cost] as sorted label rows.
std::vector<std::vector<Labels>> naive_frontiers(
    const gates::GateLibrary& library, unsigned max_cost) {
  const mvl::PatternDomain& domain = library.domain();
  const std::size_t width = domain.size();
  std::vector<Labels> tables(library.size(), Labels(width));
  for (std::size_t g = 0; g < library.size(); ++g) {
    for (std::size_t s = 0; s < width; ++s) {
      tables[g][s] = static_cast<std::uint16_t>(
          library.permutation(g).apply(static_cast<std::uint32_t>(s + 1)) -
          1);
    }
  }
  Labels identity(width);
  for (std::size_t s = 0; s < width; ++s) {
    identity[s] = static_cast<std::uint16_t>(s);
  }
  std::set<Labels> seen{identity};
  std::vector<std::vector<Labels>> frontiers{{identity}};
  for (unsigned k = 1; k <= max_cost; ++k) {
    std::set<Labels> next;
    for (const Labels& row : frontiers.back()) {
      std::uint32_t banned = 0;
      for (std::size_t s = 0; s < domain.binary_count(); ++s) {
        banned |= domain.banned_mask(row[s] + 1u);
      }
      for (std::size_t g = 0; g < library.size(); ++g) {
        if ((banned >> library.banned_class_of(g) & 1u) != 0) continue;
        Labels product(width);
        for (std::size_t s = 0; s < width; ++s) {
          product[s] = tables[g][row[s]];
        }
        if (seen.count(product) == 0) next.insert(std::move(product));
      }
    }
    seen.insert(next.begin(), next.end());
    frontiers.emplace_back(next.begin(), next.end());
  }
  return frontiers;
}

/// The row of B[k] at orbit-order index `index`, read back as the
/// permutation its witness cascade realizes.
Labels row_behind(const FmcfEnumerator& e, unsigned k, std::size_t index) {
  const perm::Permutation realized =
      e.witness_for_row(k, index).to_permutation(e.library().domain());
  const std::vector<std::uint32_t>& images = realized.images1();
  Labels row(images.size());
  for (std::size_t s = 0; s < row.size(); ++s) {
    row[s] = static_cast<std::uint16_t>(images[s] - 1);
  }
  return row;
}

/// Checks find(), the G witnesses and implementations() of level k against
/// the naive B[k] (sorted rows): every key of a binary-preserving row is in
/// pre_G[k]; each G[k] member's frontier_index names the memcmp-least naive
/// row with its key; and implementations() of every pre_G[k] key lists
/// exactly the naive rows with that key, in memcmp order.
void expect_queries_match_naive(const FmcfEnumerator& e, unsigned k,
                                const std::vector<Labels>& frontier) {
  const std::size_t binary = e.library().domain().binary_count();
  std::map<std::vector<std::uint32_t>, std::vector<const Labels*>> by_key;
  for (const Labels& row : frontier) {
    std::vector<std::uint32_t> images(binary);
    bool preserving = true;
    for (std::size_t s = 0; s < binary && preserving; ++s) {
      images[s] = row[s] + 1u;
      preserving = row[s] < binary;
    }
    if (preserving) by_key[images].push_back(&row);
  }
  ASSERT_EQ(by_key.size(), e.stats()[k - 1].pre_g) << "pre_G[" << k << "]";

  std::size_t members = 0;
  for (const auto& [images, rows] : by_key) {
    const perm::Permutation p = perm::Permutation::from_images(images);
    const auto entry = e.find(p);
    ASSERT_TRUE(entry.has_value()) << "k = " << k;
    ASSERT_LE(entry->cost, k);
    if (entry->cost == k) {
      ++members;
      EXPECT_EQ(row_behind(e, k, entry->frontier_index), *rows.front())
          << "witness of a G[" << k << "] member";
    }
    const std::vector<std::size_t> impls = e.implementations(p, k);
    ASSERT_EQ(impls.size(), rows.size()) << "implementations at k = " << k;
    for (std::size_t i = 0; i < impls.size(); ++i) {
      EXPECT_EQ(row_behind(e, k, impls[i]), *rows[i])
          << "implementation " << i << " at k = " << k;
    }
  }
  EXPECT_EQ(members, e.stats()[k - 1].g_new) << "G[" << k << "]";
}

/// Runs the closure on 1 thread and on 4 threads / 16 shards and checks
/// every frontier row, G witness and implementation list against the naive
/// closure.
void expect_matches_naive(const gates::GateLibrary& library,
                          unsigned max_cost) {
  const std::vector<std::vector<Labels>> expected =
      naive_frontiers(library, max_cost);
  for (const std::size_t threads : {1u, 4u}) {
    ClosureConfig config;
    config.threads = threads;
    config.shards = threads == 1 ? 1 : 16;
    FmcfEnumerator e(library, config);
    e.run_to(max_cost);
    std::size_t seen = 0;
    for (unsigned k = 0; k <= max_cost; ++k) {
      const std::vector<Labels>& want = expected[k];
      seen += want.size();
      if (k > e.levels_done()) {
        EXPECT_TRUE(want.empty()) << "B[" << k << "] past saturation";
        continue;
      }
      const FlatPermStore got = e.frontier(k);
      ASSERT_EQ(got.size(), want.size())
          << "B[" << k << "], " << threads << " threads";
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(labels_of(got, i), want[i])
            << "B[" << k << "] row " << i << ", " << threads << " threads";
      }
      if (k > 0) {
        EXPECT_EQ(e.stats()[k - 1].seen, seen) << "A[" << k << "]";
        SCOPED_TRACE(std::to_string(threads) + " threads");
        expect_queries_match_naive(e, k, want);
      }
    }
  }
}

// --- the detected group ----------------------------------------------------

TEST(FmcfSymmetry, StandardLibraryHasTheFullSymmetricGroup) {
  for (std::size_t n = 2; n <= 5; ++n) {
    const gates::GateLibrary library = gates::GateLibrary::standard(n);
    const WireSymmetry symmetry(library);
    EXPECT_EQ(symmetry.order(), factorial(n)) << n << " wires";
    EXPECT_EQ(symmetry.width(), library.domain().size());
  }
  const gates::GateLibrary three = gates::GateLibrary::standard(3);
  EXPECT_EQ(FmcfEnumerator(three).symmetry().order(), 6u);
}

TEST(FmcfSymmetry, RestrictedLibraryKeepsOnlyTheRelabelingsThatFitIt) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary full(domain);

  // Without L_A, only relabelings fixing wire A map the library onto
  // itself: the identity and the B <-> C swap.
  const WireSymmetry no_a(without_control_class_a(full));
  ASSERT_EQ(no_a.order(), 2u);
  for (std::size_t e = 0; e < no_a.order(); ++e) {
    EXPECT_EQ(no_a.wire_map(e)[0], 0u);
  }
  EXPECT_EQ(no_a.wire_map(1), (std::vector<std::size_t>{0, 2, 1}));

  // The CNOT pair on A, B alone fits the A <-> B swap.
  const gates::GateLibrary cnots =
      full.restricted_to(full.feynman_subset(0, 1));
  EXPECT_EQ(WireSymmetry(cnots).order(), 2u);
  // A single controlled-V fits only the identity.
  EXPECT_EQ(WireSymmetry(full.restricted_to({0})).order(), 1u);
}

TEST(FmcfSymmetry, ElementZeroIsTheIdentityAndTheGroupIsClosed) {
  const gates::GateLibrary library = gates::GateLibrary::standard(4);
  const WireSymmetry symmetry(library);
  const std::size_t width = symmetry.width();
  for (std::size_t l = 0; l < width; ++l) {
    EXPECT_EQ(symmetry.relabel(0)[l], l);
  }
  // π_a ∘ π_b is again an element.
  std::set<Labels> elements;
  for (std::size_t e = 0; e < symmetry.order(); ++e) {
    elements.emplace(symmetry.relabel(e), symmetry.relabel(e) + width);
  }
  ASSERT_EQ(elements.size(), symmetry.order());
  for (std::size_t a = 0; a < symmetry.order(); ++a) {
    for (std::size_t b = 0; b < symmetry.order(); ++b) {
      Labels composed(width);
      for (std::size_t l = 0; l < width; ++l) {
        composed[l] = symmetry.relabel(a)[symmetry.relabel(b)[l]];
      }
      EXPECT_EQ(elements.count(composed), 1u) << a << " o " << b;
    }
  }
}

// --- canonical rows ----------------------------------------------------------

/// The lazy refinement against the naive minimum over all conjugates, and
/// orbit_elements against the set of all conjugates, on every row of B[k].
void expect_canonical_rows_are_least_conjugates(std::size_t wires,
                                                unsigned k) {
  const gates::GateLibrary library = gates::GateLibrary::standard(wires);
  ClosureConfig config;
  config.threads = 1;
  FmcfEnumerator e(library, config);
  e.run_to(k);
  const WireSymmetry& symmetry = e.symmetry();
  const FlatPermStore& frontier = e.frontier(k);
  const std::size_t stride = frontier.row_stride();
  const std::size_t label_bytes = frontier.label_bytes();
  std::vector<std::uint8_t> bytes(stride);
  std::vector<std::uint8_t> canonical(stride);
  std::vector<std::uint32_t> scratch;
  WireSymmetry::OrbitScratch orbit_scratch;
  std::size_t canonical_rows = 0;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const Labels row = labels_of(frontier, i);
    std::set<std::vector<std::uint8_t>> conjugates;
    for (std::size_t g = 0; g < symmetry.order(); ++g) {
      symmetry.conjugate(g, row.data(), label_bytes, bytes.data());
      conjugates.insert(bytes);
    }
    symmetry.canonicalize(row.data(), label_bytes, canonical.data(), scratch);
    ASSERT_EQ(canonical, *conjugates.begin()) << "row " << i;

    symmetry.orbit_elements(row.data(), scratch, orbit_scratch);
    std::set<std::vector<std::uint8_t>> orbit;
    for (const std::uint32_t g : scratch) {
      symmetry.conjugate(g, row.data(), label_bytes, bytes.data());
      orbit.insert(bytes);
    }
    ASSERT_EQ(orbit.size(), scratch.size()) << "row " << i;
    ASSERT_EQ(orbit, conjugates) << "row " << i;
    if (std::memcmp(canonical.data(), frontier.row(i), stride) == 0) {
      ++canonical_rows;
    }
  }
  // One canonical row per orbit, and an orbit has at most order() rows.
  EXPECT_LT(canonical_rows, frontier.size());
  EXPECT_GE(canonical_rows * symmetry.order(), frontier.size());
}

TEST(FmcfSymmetry, CanonicalRowIsTheLeastConjugateOneByteLabels) {
  expect_canonical_rows_are_least_conjugates(4, 3);
}

TEST(FmcfSymmetry, CanonicalRowIsTheLeastConjugateTwoByteLabels) {
  expect_canonical_rows_are_least_conjugates(5, 2);
}

// --- the closure against the naive oracle -----------------------------------

TEST(FmcfSymmetry, ThreeWireFrontiersMatchANaiveClosure) {
  expect_matches_naive(gates::GateLibrary::standard(3), 5);
}

TEST(FmcfSymmetry, FourWireFrontiersMatchANaiveClosure) {
  expect_matches_naive(gates::GateLibrary::standard(4), 3);
}

TEST(FmcfSymmetry, RestrictedLibraryFrontiersMatchANaiveClosure) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary full(domain);
  const gates::GateLibrary restricted = without_control_class_a(full);
  ASSERT_EQ(FmcfEnumerator(restricted).symmetry().order(), 2u);
  expect_matches_naive(restricted, 5);
}

TEST(FmcfSymmetry, EveryFrontierIsClosedUnderTheGroupToCb7) {
  // Each B[k] is a union of orbits, and the seen set holds exactly one
  // canonical row per orbit of A[k].
  const gates::GateLibrary library = gates::GateLibrary::standard(3);
  ClosureConfig config;
  config.threads = 4;
  config.shards = 16;
  FmcfEnumerator e(library, config);
  e.run_to(7);
  const WireSymmetry& symmetry = e.symmetry();
  ASSERT_EQ(symmetry.order(), 6u);
  std::size_t canonical_rows = 0;
  std::vector<std::uint32_t> scratch;
  for (unsigned k = 0; k <= 7; ++k) {
    const FlatPermStore& frontier = e.frontier(k);
    const std::size_t stride = frontier.row_stride();
    std::vector<std::uint8_t> bytes(stride);
    std::size_t misses = 0;
    std::size_t orbits = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const Labels row = labels_of(frontier, i);
      for (std::size_t g = 1; g < symmetry.order(); ++g) {
        symmetry.conjugate(g, row.data(), frontier.label_bytes(),
                           bytes.data());
        if (!frontier.contains_sorted(bytes.data())) ++misses;
      }
      symmetry.canonicalize(row.data(), frontier.label_bytes(), bytes.data(),
                            scratch);
      if (std::memcmp(bytes.data(), frontier.row(i), stride) == 0) ++orbits;
    }
    EXPECT_EQ(misses, 0u) << "B[" << k << "]";
    canonical_rows += orbits;
    if (k == 7) {  // 538,191 rows of B[7] in 89,730 orbits
      EXPECT_EQ(frontier.size(), 538191u);
      EXPECT_EQ(orbits, 89730u);
    }
  }
  EXPECT_EQ(e.seen_store().size(), canonical_rows);
}

}  // namespace
}  // namespace qsyn::synth
