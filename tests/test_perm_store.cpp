// Differential tests for the FlatPermStore set algebra and the
// ShardedPermStore per-shard primitives against a
// std::set<std::vector<uint8_t>> reference model, plus the ShardedPermStore
// splitter-routing invariants the parallel FMCF sweep relies on and the
// serial and pooled drain_sorted() around empty shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "synth/flat_perm_store.h"
#include "synth/sharded_perm_store.h"

namespace qsyn::synth {
namespace {

using Row = std::vector<std::uint8_t>;
using RowSet = std::set<Row>;

Row random_row(Rng& rng, std::size_t width, std::uint8_t alphabet) {
  Row row(width);
  for (std::size_t i = 0; i < width; ++i) {
    row[i] = static_cast<std::uint8_t>(rng.below(alphabet));
  }
  return row;
}

FlatPermStore store_of(const std::vector<Row>& rows, std::size_t width) {
  FlatPermStore store(width);
  for (const Row& row : rows) store.push_back(row.data());
  return store;
}

RowSet set_of(const std::vector<Row>& rows) {
  return RowSet(rows.begin(), rows.end());
}

void expect_equals_model(const FlatPermStore& store, const RowSet& model) {
  // A sorted, duplicate-free store enumerates exactly the model's rows in
  // the model's (lexicographic) order.
  ASSERT_EQ(store.size(), model.size());
  std::size_t i = 0;
  for (const Row& row : model) {
    ASSERT_EQ(std::memcmp(store.row(i), row.data(), row.size()), 0)
        << "row " << i;
    ++i;
  }
}

TEST(FlatPermStoreDifferential, SortUniqueRandomized) {
  Rng rng(7001);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t width = 1 + rng.below(12);
    const std::uint8_t alphabet =
        static_cast<std::uint8_t>(1 + rng.below(5));  // heavy duplication
    std::vector<Row> rows;
    const std::size_t count = rng.below(200);
    for (std::size_t i = 0; i < count; ++i) {
      rows.push_back(random_row(rng, width, alphabet));
    }
    FlatPermStore store = store_of(rows, width);
    store.sort_unique();
    expect_equals_model(store, set_of(rows));
  }
}

TEST(FlatPermStoreDifferential, SortUniqueAllDuplicates) {
  FlatPermStore store(5);
  const Row row = {4, 3, 2, 1, 0};
  for (int i = 0; i < 100; ++i) store.push_back(row.data());
  store.sort_unique();
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(std::memcmp(store.row(0), row.data(), 5), 0);
}

TEST(FlatPermStoreDifferential, SubtractRandomized) {
  Rng rng(7002);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t width = 1 + rng.below(10);
    const std::uint8_t alphabet = static_cast<std::uint8_t>(1 + rng.below(4));
    std::vector<Row> a_rows;
    std::vector<Row> b_rows;
    for (std::size_t i = rng.below(150); i > 0; --i) {
      a_rows.push_back(random_row(rng, width, alphabet));
    }
    for (std::size_t i = rng.below(150); i > 0; --i) {
      // Bias toward overlap: half the time reuse a row from a.
      if (!a_rows.empty() && rng.bernoulli(0.5)) {
        b_rows.push_back(a_rows[rng.below(a_rows.size())]);
      } else {
        b_rows.push_back(random_row(rng, width, alphabet));
      }
    }
    FlatPermStore a = store_of(a_rows, width);
    FlatPermStore b = store_of(b_rows, width);
    a.sort_unique();
    b.sort_unique();
    a.subtract_sorted(b);

    RowSet model = set_of(a_rows);
    for (const Row& row : b_rows) model.erase(row);
    expect_equals_model(a, model);
  }
}

TEST(FlatPermStoreDifferential, MergeRandomizedIncludingOverlap) {
  Rng rng(7003);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t width = 1 + rng.below(10);
    const std::uint8_t alphabet = static_cast<std::uint8_t>(1 + rng.below(4));
    std::vector<Row> a_rows;
    std::vector<Row> b_rows;
    for (std::size_t i = rng.below(120); i > 0; --i) {
      a_rows.push_back(random_row(rng, width, alphabet));
    }
    for (std::size_t i = rng.below(120); i > 0; --i) {
      if (!a_rows.empty() && rng.bernoulli(0.5)) {
        b_rows.push_back(a_rows[rng.below(a_rows.size())]);
      } else {
        b_rows.push_back(random_row(rng, width, alphabet));
      }
    }
    FlatPermStore a = store_of(a_rows, width);
    FlatPermStore b = store_of(b_rows, width);
    a.sort_unique();
    b.sort_unique();
    a.merge_sorted(b);

    RowSet model = set_of(a_rows);
    for (const Row& row : b_rows) model.insert(row);
    expect_equals_model(a, model);
  }
}

TEST(FlatPermStoreDifferential, MergeFullyOverlappingIsIdempotent) {
  Rng rng(7004);
  std::vector<Row> rows;
  for (int i = 0; i < 80; ++i) rows.push_back(random_row(rng, 6, 3));
  FlatPermStore a = store_of(rows, 6);
  a.sort_unique();
  FlatPermStore b = store_of(rows, 6);
  b.sort_unique();
  const std::size_t before = a.size();
  a.merge_sorted(b);
  EXPECT_EQ(a.size(), before);  // duplicates across stores kept once
}

TEST(FlatPermStoreDifferential, ContainsRandomized) {
  Rng rng(7005);
  const std::size_t width = 8;
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(random_row(rng, width, 4));
  FlatPermStore store = store_of(rows, width);
  store.sort_unique();
  const RowSet model = set_of(rows);
  for (int i = 0; i < 300; ++i) {
    const Row probe = random_row(rng, width, 4);
    EXPECT_EQ(store.contains_sorted(probe.data()), model.count(probe) == 1);
  }
}

// --- ShardedPermStore --------------------------------------------------------

/// Splitters drawn from `rows` the way the closure draws them from its pilot
/// frontier: sorted, deduplicated, at evenly spaced ranks. The shard count
/// shrinks to the number of distinct rows when the sample is smaller.
FlatPermStore splitters_of(const std::vector<Row>& rows, std::size_t width,
                           std::size_t shard_count) {
  FlatPermStore sorted = store_of(rows, width);
  sorted.sort_unique();
  return ShardedPermStore::splitters_from(
      sorted, std::max<std::size_t>(1, std::min(shard_count, sorted.size())));
}

/// Loads `rows` the way the closure does: routes each to its shard, sorts
/// each shard's chunk, drops the rows the shard already holds and merges in
/// the rest.
void load(ShardedPermStore& store, const std::vector<Row>& rows) {
  std::vector<FlatPermStore> chunks(store.shard_count(),
                                    FlatPermStore(store.width()));
  for (const Row& row : rows) {
    chunks[store.shard_of(row.data())].push_back(row.data());
  }
  for (std::size_t s = 0; s < chunks.size(); ++s) {
    if (chunks[s].empty()) continue;
    chunks[s].sort_unique();
    store.subtract_shard_from(s, chunks[s]);
    store.merge_into_shard(s, chunks[s]);
  }
}

/// Membership through the closure's filter: a row survives
/// subtract_shard_from exactly when its shard does not hold it.
bool holds(const ShardedPermStore& store, const std::uint8_t* row) {
  FlatPermStore probe(store.width());
  probe.push_back(row);
  store.subtract_shard_from(store.shard_of(row), probe);
  return probe.empty();
}

/// All rows of `store` in order, leaving it intact (drains a copy).
FlatPermStore drained_copy(const ShardedPermStore& store) {
  ShardedPermStore copy = store;
  return copy.drain_sorted();
}

/// A random label row of `width` whose first `fixed` labels are 0, 1, ...
/// — the shape of real closure rows, whose leading labels every short
/// cascade fixes.
Row fixed_prefix_row(Rng& rng, std::size_t width, std::size_t fixed) {
  Row row = random_row(rng, width, static_cast<std::uint8_t>(width));
  for (std::size_t i = 0; i < fixed; ++i) row[i] = static_cast<std::uint8_t>(i);
  return row;
}

TEST(ShardedPermStore, UnsplitStoreRoutesEverythingToShardZero) {
  Rng rng(7099);
  ShardedPermStore store(6, 16);
  EXPECT_EQ(store.live_shards(), 1u);
  EXPECT_TRUE(store.splitters().empty());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(store.shard_of(random_row(rng, 6, 6).data()), 0u);
  }
}

TEST(ShardedPermStore, RoutingIsMonotoneInRowOrder) {
  // shard_of must be monotone w.r.t. lexicographic row order — that is the
  // invariant that makes drain_sorted() globally sorted. Rows hold domain
  // labels in [0, width), as everywhere in the perm stores.
  Rng rng(7100);
  for (const std::size_t shard_count : {2u, 7u, 16u, 64u}) {
    std::vector<Row> sample;
    for (int i = 0; i < 1000; ++i) sample.push_back(random_row(rng, 5, 5));
    ShardedPermStore store(5, shard_count);
    store.split(splitters_of(sample, 5, shard_count));
    ASSERT_EQ(store.live_shards(), shard_count);
    for (int i = 0; i < 500; ++i) {
      Row a = random_row(rng, 5, 5);
      Row b = random_row(rng, 5, 5);
      if (std::memcmp(a.data(), b.data(), 5) > 0) std::swap(a, b);
      EXPECT_LE(store.shard_of(a.data()), store.shard_of(b.data()));
    }
    // A row equal to a splitter opens the next shard.
    for (std::size_t s = 0; s + 1 < shard_count; ++s) {
      EXPECT_EQ(store.shard_of(store.splitters().row(s)), s + 1);
    }
  }
}

TEST(ShardedPermStore, SplitterRoutingHitsEveryShard) {
  // The closure's rows share their leading labels (every gate fixes label 0
  // and most short cascades fix label 1), so routing on leading label
  // positions parks them in one shard. Splitters sampled from the rows
  // spread rows drawn like the sample over every shard, within 2x of the
  // mean.
  Rng rng(7104);
  for (const std::size_t width : {8u, 38u}) {
    for (const std::size_t shard_count : {4u, 16u}) {
      std::vector<Row> sample;
      for (std::size_t i = 0; i < 64 * shard_count; ++i) {
        sample.push_back(fixed_prefix_row(rng, width, 2));
      }
      ShardedPermStore store(width, shard_count);
      store.split(splitters_of(sample, width, shard_count));
      std::vector<std::size_t> hits(shard_count, 0);
      const std::size_t probes = 256 * shard_count;
      for (std::size_t i = 0; i < probes; ++i) {
        ++hits[store.shard_of(fixed_prefix_row(rng, width, 2).data())];
      }
      for (std::size_t s = 0; s < shard_count; ++s) {
        EXPECT_GT(hits[s], 0u) << "width " << width << " shard " << s
                               << " of " << shard_count << " never hit";
        EXPECT_LE(hits[s] * shard_count, 2 * probes)
            << "width " << width << " shard " << s << " of " << shard_count;
      }
    }
  }
}

TEST(ShardedPermStore, SplitMovesEveryRowToItsRange) {
  // Re-splitting a loaded store keeps every row and cuts the sample's own
  // rows into shards whose sizes differ by at most one.
  Rng rng(7105);
  const std::size_t width = 9;
  for (const std::size_t shard_count : {3u, 16u}) {
    std::vector<Row> rows;
    ShardedPermStore store(width, shard_count);
    for (int i = 0; i < 700; ++i) {
      rows.push_back(fixed_prefix_row(rng, width, 1));
    }
    load(store, rows);
    store.split(splitters_of(rows, width, shard_count));
    const RowSet model = set_of(rows);
    expect_equals_model(drained_copy(store), model);
    std::size_t smallest = model.size();
    std::size_t largest = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      smallest = std::min(smallest, store.shard_size(s));
      largest = std::max(largest, store.shard_size(s));
      for (std::size_t i = 0; i < store.shard(s).size(); ++i) {
        EXPECT_EQ(store.shard_of(store.shard(s).row(i)), s);
      }
    }
    EXPECT_LE(largest - smallest, 1u);
    for (const Row& row : rows) EXPECT_TRUE(holds(store, row.data()));
  }
}

TEST(ShardedPermStore, SplitRejectsMalformedSplitters) {
  ShardedPermStore store(3, 3);
  const Row low = {0, 1, 2};
  const Row high = {2, 1, 0};
  FlatPermStore one(3);
  one.push_back(low.data());
  EXPECT_THROW(store.split(one), qsyn::LogicError);  // needs 2 for 3 shards
  FlatPermStore descending(3);
  descending.push_back(high.data());
  descending.push_back(low.data());
  EXPECT_THROW(store.split(descending), qsyn::LogicError);
  FlatPermStore repeated(3);
  repeated.push_back(low.data());
  repeated.push_back(low.data());
  EXPECT_THROW(store.split(repeated), qsyn::LogicError);
  FlatPermStore narrow(2);
  narrow.push_back(low.data());
  narrow.push_back(high.data());
  EXPECT_THROW(store.split(narrow), qsyn::LogicError);  // width mismatch
  // splitters_from needs a row per shard, except for a single shard.
  EXPECT_THROW((void)ShardedPermStore::splitters_from(one, 2),
               qsyn::LogicError);
  EXPECT_THROW((void)ShardedPermStore::splitters_from(one, 0),
               qsyn::LogicError);
  EXPECT_TRUE(ShardedPermStore::splitters_from(FlatPermStore(3), 1).empty());
}

TEST(ShardedPermStore, FlattenEqualsSortedModel) {
  // drain_sorted() concatenates the shards into the sorted model, from one
  // shard or many; a drained copy leaves the original intact.
  Rng rng(7101);
  for (const std::size_t shard_count : {1u, 3u, 8u, 32u}) {
    const std::size_t width = 1 + rng.below(10);
    std::vector<Row> rows;
    for (int i = 0; i < 400; ++i) {
      rows.push_back(random_row(rng, width, static_cast<std::uint8_t>(width)));
    }
    const FlatPermStore splitters = splitters_of(rows, width, shard_count);
    ShardedPermStore store(width, splitters.size() + 1);
    store.split(splitters);
    load(store, rows);
    expect_equals_model(drained_copy(store), set_of(rows));
    EXPECT_EQ(store.size(), set_of(rows).size());

    // drain_sorted yields the same rows and empties the store.
    expect_equals_model(store.drain_sorted(), set_of(rows));
    EXPECT_TRUE(store.empty());
  }
}

TEST(ShardedPermStore, ShardWiseAlgebraMatchesFlatAlgebra) {
  // The closure's per-shard primitives compose into whole-set difference
  // and union: subtract_shard_from filters a sorted chunk against a shard,
  // merge_into_shard adds a disjoint chunk, absorb_shard adopts a disjoint
  // shard of a same-layout store.
  Rng rng(7102);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t width = 2 + rng.below(10);
    const std::uint8_t alphabet = static_cast<std::uint8_t>(width);
    const std::size_t shard_count = 1 + rng.below(32);
    std::vector<Row> a_rows;
    std::vector<Row> b_rows;
    for (std::size_t i = rng.below(200); i > 0; --i) {
      a_rows.push_back(random_row(rng, width, alphabet));
    }
    for (std::size_t i = rng.below(200); i > 0; --i) {
      if (!a_rows.empty() && rng.bernoulli(0.4)) {
        b_rows.push_back(a_rows[rng.below(a_rows.size())]);
      } else {
        b_rows.push_back(random_row(rng, width, alphabet));
      }
    }
    // All stores cut at the same splitters, sampled from their own rows,
    // so the shard-wise calls really span several shards.
    std::vector<Row> sample = a_rows;
    sample.insert(sample.end(), b_rows.begin(), b_rows.end());
    const FlatPermStore splitters = splitters_of(sample, width, shard_count);
    ShardedPermStore a(width, splitters.size() + 1);
    ShardedPermStore b(width, splitters.size() + 1);
    ShardedPermStore b_only(width, splitters.size() + 1);
    a.split(splitters);
    b.split(splitters);
    b_only.split(splitters);
    load(a, a_rows);
    load(b, b_rows);

    FlatPermStore a_only(width);
    for (std::size_t s = 0; s < a.shard_count(); ++s) {
      FlatPermStore rows = a.shard(s);
      b.subtract_shard_from(s, rows);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        a_only.push_back(rows.row(i));
      }
      rows = b.shard(s);
      a.subtract_shard_from(s, rows);
      b_only.merge_into_shard(s, rows);
    }
    RowSet a_only_model = set_of(a_rows);
    for (const Row& row : b_rows) a_only_model.erase(row);
    expect_equals_model(a_only, a_only_model);
    RowSet b_only_model = set_of(b_rows);
    for (const Row& row : a_rows) b_only_model.erase(row);
    expect_equals_model(drained_copy(b_only), b_only_model);

    ShardedPermStore merged = a;
    for (std::size_t s = 0; s < merged.shard_count(); ++s) {
      merged.absorb_shard(s, b_only);
    }
    RowSet union_model = set_of(a_rows);
    for (const Row& row : b_rows) union_model.insert(row);
    expect_equals_model(merged.drain_sorted(), union_model);
  }
}

TEST(ShardedPermStore, MovedChunkMergesIntoEmptyAndNonEmptyShards) {
  // merge_into_shard takes its chunk by value: a chunk moved into an empty
  // shard becomes the shard's store as is, one moved into a filled shard is
  // merged, and one passed as an lvalue is copied and left intact.
  Rng rng(7106);
  const std::size_t width = 6;
  std::vector<Row> rows;
  for (int i = 0; i < 120; ++i) rows.push_back(random_row(rng, width, 6));
  const std::vector<Row> first(rows.begin(), rows.begin() + 60);
  const std::vector<Row> second(rows.begin() + 60, rows.end());
  ShardedPermStore store(width, 4);

  FlatPermStore chunk = store_of(first, width);
  chunk.sort_unique();
  const std::uint8_t* const bytes = chunk.row(0);
  store.merge_into_shard(0, std::move(chunk));
  EXPECT_EQ(store.shard(0).row(0), bytes);  // taken over, not copied
  expect_equals_model(store.shard(0), set_of(first));

  FlatPermStore more = store_of(second, width);
  more.sort_unique();
  store.subtract_shard_from(0, more);
  store.merge_into_shard(0, std::move(more));
  expect_equals_model(store.shard(0), set_of(rows));

  FlatPermStore kept = store_of(second, width);
  kept.sort_unique();
  const std::size_t kept_rows = kept.size();
  ShardedPermStore other(width, 4);
  other.merge_into_shard(0, kept);
  EXPECT_EQ(kept.size(), kept_rows);
  expect_equals_model(other.shard(0), set_of(second));

  ShardedPermStore narrow(width - 1, 4);
  FlatPermStore wide = store_of(first, width);
  wide.sort_unique();
  EXPECT_THROW(narrow.merge_into_shard(0, std::move(wide)), LogicError);
}

TEST(ShardedPermStore, ContainsSortedMatchesModel) {
  // Membership as the closure tests it (subtract_shard_from), on a store
  // cut into 16 shards.
  Rng rng(7103);
  const std::size_t width = 6;
  std::vector<Row> rows;
  for (int i = 0; i < 250; ++i) rows.push_back(random_row(rng, width, 4));
  const FlatPermStore splitters = splitters_of(rows, width, 16);
  ShardedPermStore store(width, splitters.size() + 1);
  store.split(splitters);
  load(store, rows);
  const RowSet model = set_of(rows);
  for (int i = 0; i < 250; ++i) {
    const Row probe = random_row(rng, width, 4);
    EXPECT_EQ(holds(store, probe.data()), model.count(probe) == 1);
  }
}

TEST(ShardedPermStore, WidthOneRoutesEverythingConsistently) {
  ShardedPermStore store(1, 8);
  const std::vector<Row> rows = {{255}, {0}, {128}};
  load(store, rows);
  EXPECT_EQ(store.size(), 3u);
  const FlatPermStore flat = drained_copy(store);
  EXPECT_EQ(flat.row(0)[0], 0);
  EXPECT_EQ(flat.row(1)[0], 128);
  EXPECT_EQ(flat.row(2)[0], 255);
  for (const Row& row : rows) EXPECT_TRUE(holds(store, row.data()));
}

TEST(ShardedPermStore, RejectsMismatchedLayouts) {
  ShardedPermStore a(4, 8);
  ShardedPermStore b(4, 16);
  EXPECT_THROW(a.absorb_shard(0, b), qsyn::LogicError);

  // Same shard count, different cuts: rows of one shard index would belong
  // to different ranges.
  const Row low = {0, 1, 2, 3};
  const Row high = {3, 2, 1, 0};
  FlatPermStore cut_low(4);
  cut_low.push_back(low.data());
  FlatPermStore cut_high(4);
  cut_high.push_back(high.data());
  ShardedPermStore c(4, 2);
  ShardedPermStore d(4, 2);
  c.split(cut_low);
  d.split(cut_high);
  EXPECT_THROW(c.absorb_shard(0, d), qsyn::LogicError);
  EXPECT_THROW(c.absorb_shard(0, ShardedPermStore(4, 2)), qsyn::LogicError);
}

// --- wide domains: two-byte label rows (width > 256) -----------------------

/// A random row in the store's encoding for `width` labels (big-endian
/// two-byte labels when width > 256).
Row random_wide_row(Rng& rng, std::size_t width) {
  const std::size_t label_bytes = width <= 256 ? 1 : 2;
  Row row(width * label_bytes);
  for (std::size_t s = 0; s < width; ++s) {
    FlatPermStore::write_label(
        row.data(), s, label_bytes,
        static_cast<std::uint32_t>(rng.below(width)));
  }
  return row;
}

TEST(WidePermStore, LabelWidthSelection) {
  EXPECT_EQ(FlatPermStore(38).label_bytes(), 1u);
  EXPECT_EQ(FlatPermStore(256).label_bytes(), 1u);
  EXPECT_EQ(FlatPermStore(257).label_bytes(), 2u);
  EXPECT_EQ(FlatPermStore(782).label_bytes(), 2u);
  EXPECT_EQ(FlatPermStore(782).row_stride(), 1564u);
  EXPECT_THROW(FlatPermStore(65537), qsyn::LogicError);
}

TEST(WidePermStore, BigEndianEncodingKeepsMemcmpOrderLabelLexicographic) {
  // The invariant behind reusing the byte-wise set algebra unchanged: for
  // two-byte labels stored big-endian, memcmp order == label order.
  Rng rng(7200);
  const std::size_t width = 300;
  for (int trial = 0; trial < 200; ++trial) {
    const Row a = random_wide_row(rng, width);
    const Row b = random_wide_row(rng, width);
    int label_cmp = 0;
    for (std::size_t s = 0; s < width && label_cmp == 0; ++s) {
      const std::uint32_t la = FlatPermStore::read_label(a.data(), s, 2);
      const std::uint32_t lb = FlatPermStore::read_label(b.data(), s, 2);
      label_cmp = la < lb ? -1 : (la > lb ? 1 : 0);
    }
    const int byte_cmp = std::memcmp(a.data(), b.data(), a.size());
    EXPECT_EQ(byte_cmp < 0, label_cmp < 0);
    EXPECT_EQ(byte_cmp == 0, label_cmp == 0);
  }
}

TEST(WidePermStore, SetAlgebraMatchesModelAtWidth300) {
  Rng rng(7201);
  const std::size_t width = 300;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Row> a_rows;
    std::vector<Row> b_rows;
    for (std::size_t i = 80 + rng.below(80); i > 0; --i) {
      a_rows.push_back(random_wide_row(rng, width));
    }
    for (std::size_t i = 80 + rng.below(80); i > 0; --i) {
      if (rng.bernoulli(0.5)) {
        b_rows.push_back(a_rows[rng.below(a_rows.size())]);
      } else {
        b_rows.push_back(random_wide_row(rng, width));
      }
    }
    FlatPermStore a = store_of(a_rows, width);
    FlatPermStore b = store_of(b_rows, width);
    a.sort_unique();
    b.sort_unique();

    FlatPermStore merged = a;
    merged.merge_sorted(b);
    RowSet union_model = set_of(a_rows);
    for (const Row& row : b_rows) union_model.insert(row);
    expect_equals_model(merged, union_model);
    for (const Row& row : b_rows) {
      EXPECT_TRUE(merged.contains_sorted(row.data()));
    }

    a.subtract_sorted(b);
    RowSet difference_model = set_of(a_rows);
    for (const Row& row : b_rows) difference_model.erase(row);
    expect_equals_model(a, difference_model);
  }
}

TEST(WidePermStore, PermutationRoundTripAtWidth500) {
  Rng rng(7202);
  const std::size_t width = 500;
  // A random permutation of {1..500} via Fisher-Yates.
  std::vector<std::uint32_t> images(width);
  for (std::size_t i = 0; i < width; ++i) {
    images[i] = static_cast<std::uint32_t>(i + 1);
  }
  for (std::size_t i = width - 1; i > 0; --i) {
    std::swap(images[i], images[rng.below(i + 1)]);
  }
  const auto p = perm::Permutation::from_images(std::move(images));
  FlatPermStore store(width);
  store.push_back(p);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.permutation(0), p);
  for (std::size_t s = 0; s < width; ++s) {
    EXPECT_EQ(store.label(0, s),
              p.apply(static_cast<std::uint32_t>(s + 1)) - 1);
  }
  EXPECT_EQ(store.encode_row(p),
            Row(store.row(0), store.row(0) + store.row_stride()));
}

TEST(WidePermStore, SplitterRoutingIsMonotoneAndSpreadsAtWidth782) {
  // 782 = the 5-wire reduced domain, two big-endian bytes per label. The
  // leading label is fixed and the second straddles the 255/256 byte
  // boundary, so the memcmp router must order two-byte labels by value.
  // Monotonicity in row order keeps drain_sorted() globally sorted; spread
  // keeps the parallel phase parallel.
  Rng rng(7203);
  const auto sample_row = [&rng] {
    Row row = random_wide_row(rng, 782);
    FlatPermStore::write_label(row.data(), 0, 2, 0);
    FlatPermStore::write_label(row.data(), 1, 2,
                               static_cast<std::uint32_t>(248 + rng.below(16)));
    return row;
  };
  for (const std::size_t shard_count : {4u, 16u}) {
    FlatPermStore sample(782);
    for (std::size_t i = 0; i < 64 * shard_count; ++i) {
      sample.push_back(sample_row().data());
    }
    sample.sort_unique();
    ShardedPermStore store(782, shard_count);
    store.split(ShardedPermStore::splitters_from(sample, shard_count));
    for (int i = 0; i < 300; ++i) {
      Row a = sample_row();
      Row b = sample_row();
      if (std::memcmp(a.data(), b.data(), a.size()) > 0) std::swap(a, b);
      EXPECT_LE(store.shard_of(a.data()), store.shard_of(b.data()));
    }
    std::vector<std::size_t> hits(shard_count, 0);
    for (std::size_t i = 0; i < 64 * shard_count; ++i) {
      ++hits[store.shard_of(sample_row().data())];
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      EXPECT_GT(hits[s], 0u) << "shard " << s << " of " << shard_count;
    }
  }
}

// --- drain_sorted around empty shards ----------------------------------------

/// Cuts a 6-shard store at splitters sampled from random `width`-label rows,
/// then, for each filling below, loads only the sample rows that route to a
/// filled shard and drains the store with `pool` (nullptr = serially). The
/// drain must equal the serial concatenation of the shards and leave every
/// shard empty.
void expect_drain_concatenates_shards(std::size_t width, ThreadPool* pool) {
  constexpr std::size_t kShards = 6;
  const std::vector<std::vector<std::size_t>> fillings = {
      {0, 1, 2, 3, 4, 5},  // every shard
      {1, 2, 3, 4, 5},     // first shard empty
      {0, 1, 4, 5},        // middle shards empty
      {0, 1, 2, 3, 4},     // last shard empty
      {0, 5},              // only the outer shards
      {3},                 // exactly one live shard
      {},                  // every shard empty
  };
  Rng rng(7300 + static_cast<std::uint32_t>(width));
  std::vector<Row> sample;
  for (int i = 0; i < 600; ++i) sample.push_back(random_wide_row(rng, width));
  const FlatPermStore splitters = splitters_of(sample, width, kShards);
  ASSERT_EQ(splitters.size() + 1, kShards);

  for (const std::vector<std::size_t>& filled : fillings) {
    const auto is_filled = [&filled](std::size_t s) {
      return std::find(filled.begin(), filled.end(), s) != filled.end();
    };
    ShardedPermStore store(width, kShards);
    store.split(splitters);
    std::vector<Row> rows;
    for (const Row& row : sample) {
      if (is_filled(store.shard_of(row.data()))) rows.push_back(row);
    }
    load(store, rows);

    Row expected;
    for (std::size_t s = 0; s < kShards; ++s) {
      const FlatPermStore& shard = store.shard(s);
      EXPECT_EQ(shard.empty(), !is_filled(s)) << "shard " << s;
      expected.insert(expected.end(), shard.data(),
                      shard.data() + shard.size_bytes());
    }

    const FlatPermStore drained = store.drain_sorted(pool);
    EXPECT_EQ(drained.row_stride(), store.shard(0).row_stride());
    EXPECT_EQ(Row(drained.data(), drained.data() + drained.size_bytes()),
              expected)
        << filled.size() << " filled shards";
    EXPECT_TRUE(store.empty());
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_TRUE(store.shard(s).empty()) << "shard " << s;
    }
  }
}

TEST(ShardedPermStoreDrain, SerialDrainConcatenatesShardsAroundEmptyOnes) {
  expect_drain_concatenates_shards(5, nullptr);
  expect_drain_concatenates_shards(38, nullptr);
}

TEST(ShardedPermStoreDrain, PooledDrainConcatenatesShardsAroundEmptyOnes) {
  // Four workers over six shards: copies of different shards overlap.
  ThreadPool pool(4);
  expect_drain_concatenates_shards(5, &pool);
  expect_drain_concatenates_shards(38, &pool);
}

TEST(ShardedPermStoreDrain, TwoByteLabelRowsDrainSeriallyAndPooled) {
  // Width 300 packs two big-endian bytes per label (stride 600).
  ThreadPool pool(4);
  expect_drain_concatenates_shards(300, nullptr);
  expect_drain_concatenates_shards(300, &pool);
}

}  // namespace
}  // namespace qsyn::synth
