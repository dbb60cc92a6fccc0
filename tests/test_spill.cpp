// Tests for the out-of-core closure machinery: the growable mmap backend,
// the writable FileRowStorage, the StorageSpec construction seam, sealed
// prefix-compressed spill runs (including corrupt-input hardening), the
// spilled ShardedPermStore differential against its in-memory twin (and its
// re-split), and the spill-invariance of the FMCF per-level stats, frontier
// bytes and heap budget on split stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/error.h"
#include "common/io/mmap_file.h"
#include "common/rng.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "synth/closure_config.h"
#include "synth/flat_perm_store.h"
#include "synth/fmcf.h"
#include "synth/row_storage.h"
#include "synth/sharded_perm_store.h"
#include "synth/spill.h"
#include "synth/storage_spec.h"

namespace qsyn::synth {
namespace {

using Row = std::vector<std::uint8_t>;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "qsyn_spill_" + std::to_string(::getpid()) +
         "_" + name;
}

Row random_label_row(Rng& rng, std::size_t width) {
  Row row(width);
  for (std::size_t i = 0; i < width; ++i) {
    row[i] = static_cast<std::uint8_t>(rng.below(
        static_cast<std::uint32_t>(width)));
  }
  return row;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

void expect_same_rows(const FlatPermStore& a, const FlatPermStore& b) {
  ASSERT_EQ(a.row_stride(), b.row_stride());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
}

// --- GrowableMmapFile ------------------------------------------------------

TEST(GrowableMmapFile, AppendGrowSealReopen) {
  const std::string path = temp_path("growable_basic");
  {
    io::GrowableMmapFile file(path);
    std::vector<std::uint8_t> chunk(300000);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = static_cast<std::uint8_t>(i * 7);
    }
    // Several appends crossing the initial mapping's capacity.
    for (int rep = 0; rep < 8; ++rep) {
      file.append(chunk.data(), chunk.size());
    }
    ASSERT_EQ(file.size(), 8 * chunk.size());
    EXPECT_EQ(file.data()[0], chunk[0]);
    EXPECT_EQ(file.data()[7 * chunk.size() + 5], chunk[5]);
    file.seal();
    EXPECT_TRUE(file.sealed());
    file.seal();  // idempotent
  }
  // The sealed file is exactly the logical bytes (capacity truncated away).
  const auto mapped = io::MmapFile::map(path);
  ASSERT_EQ(mapped->size(), 8u * 300000u);
  EXPECT_EQ(mapped->data()[42], static_cast<std::uint8_t>(42 * 7));
  std::remove(path.c_str());
}

TEST(GrowableMmapFile, SealRejectsFurtherMutation) {
  const std::string path = temp_path("growable_sealed");
  io::GrowableMmapFile file(path, /*unlink_on_destroy=*/true);
  const std::uint8_t byte = 0xab;
  file.append(&byte, 1);
  file.seal();
  EXPECT_THROW(file.append(&byte, 1), qsyn::LogicError);
  EXPECT_THROW(file.resize(16), qsyn::LogicError);
  EXPECT_THROW((void)file.mutable_data(), qsyn::LogicError);
}

TEST(GrowableMmapFile, UnusableDirectoryIsIoError) {
  EXPECT_THROW(io::GrowableMmapFile(temp_path("no_such_dir") + "/x/y/z"),
               qsyn::IoError);
}

TEST(GrowableMmapFile, UnlinkOnDestroyRemovesFile) {
  const std::string path = temp_path("growable_unlink");
  {
    io::GrowableMmapFile file(path, /*unlink_on_destroy=*/true);
    const std::uint8_t byte = 1;
    file.append(&byte, 1);
    file.seal();
  }
  EXPECT_THROW((void)io::MmapFile::map(path), qsyn::IoError);
}

// --- FileRowStorage behind a FlatPermStore ---------------------------------

TEST(FileRowStorage, StoreRoundTripAndSealFlipsReadOnly) {
  const std::string path = temp_path("file_rows");
  auto storage = std::make_shared<FileRowStorage>(path);
  {
    FlatPermStore store(4, storage);
    EXPECT_FALSE(store.read_only());
    store.push_back(perm::Permutation::from_cycles("(1,2)", 4));
    store.push_back(perm::Permutation::from_cycles("(3,4)", 4));
    store.sort_unique();
    ASSERT_EQ(store.size(), 2u);
    EXPECT_EQ(store.memory_bytes(), 0u);
    EXPECT_EQ(store.disk_bytes(), 8u);

    storage->seal();
    EXPECT_TRUE(store.read_only());
    EXPECT_THROW(store.push_back(perm::Permutation::identity(4)),
                 qsyn::LogicError);
    EXPECT_THROW(store.sort_unique(), qsyn::LogicError);
    // Reads still serve from the sealed mapping.
    EXPECT_EQ(store.permutation(1).to_cycle_string(), "(1,2)");
  }
  // keep_file defaults to true: the sealed bytes persist and re-wrap.
  storage.reset();
  FlatPermStore reopened(4, StorageSpec::mmap_read_only(path).make_storage());
  ASSERT_EQ(reopened.size(), 2u);
  EXPECT_TRUE(reopened.read_only());
  std::remove(path.c_str());
}

TEST(FileRowStorage, TemporaryPolicyDeletesFile) {
  const std::string path = temp_path("file_rows_tmp");
  {
    FileRowStorage storage(path, /*keep_file=*/false);
    const std::uint8_t byte = 9;
    storage.append_bytes(&byte, 1);
  }
  EXPECT_THROW((void)io::MmapFile::map(path), qsyn::IoError);
}

// --- StorageSpec -----------------------------------------------------------

TEST(StorageSpec, BackendsRoundTrip) {
  const std::string path = temp_path("spec_file");
  {
    FlatPermStore store = StorageSpec::file_backed(path).make_store(3);
    store.push_back(perm::Permutation::from_cycles("(1,3)", 3));
    dynamic_cast<FileRowStorage&>(*store.storage()).seal();
  }
  FlatPermStore mem = StorageSpec::in_memory().make_store(3);
  EXPECT_FALSE(mem.read_only());
  FlatPermStore mapped = StorageSpec::mmap_read_only(path).make_store(3);
  EXPECT_TRUE(mapped.read_only());
  ASSERT_EQ(mapped.size(), 1u);
  EXPECT_EQ(mapped.permutation(0).to_cycle_string(), "(1,3)");
  EXPECT_EQ(StorageSpec::mmap_read_only(path),
            StorageSpec::mmap_read_only(path));
  EXPECT_NE(StorageSpec::in_memory(), StorageSpec::mmap_read_only(path));
  std::remove(path.c_str());
}

TEST(StorageSpec, MissingFileIsIoErrorFractionalRowIsLogicError) {
  EXPECT_THROW(
      (void)StorageSpec::mmap_read_only(temp_path("spec_missing")).make_store(3),
      qsyn::IoError);
  const std::string path = temp_path("spec_fraction");
  write_file(path, {1, 2, 3, 4, 5});  // not a multiple of width 3
  EXPECT_THROW((void)StorageSpec::mmap_read_only(path).make_store(3),
               qsyn::LogicError);
  std::remove(path.c_str());
}

// --- SealedRun -------------------------------------------------------------

FlatPermStore sorted_store(Rng& rng, std::size_t width, std::size_t count,
                           std::uint8_t first_label) {
  // Rows sharing a fixed first label, so the run has a real common prefix.
  FlatPermStore store(width);
  for (std::size_t i = 0; i < count; ++i) {
    Row row = random_label_row(rng, width);
    row[0] = first_label;
    store.push_back(row.data());
  }
  store.sort_unique();
  return store;
}

TEST(SealedRun, RoundTripCompressesAndServes) {
  Rng rng(4101);
  const std::size_t width = 16;
  FlatPermStore rows = sorted_store(rng, width, 400, 3);
  const std::string path = temp_path("run_roundtrip");
  const auto run = SealedRun::write(path, rows, /*keep_file=*/true);

  ASSERT_EQ(run->rows(), rows.size());
  EXPECT_GE(run->prefix_bytes(), 1u);  // the shared first label, at least
  EXPECT_LT(run->disk_bytes(),
            spill::kRunHeaderBytes + rows.size_bytes());  // compressed

  Row buf(width);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    run->materialize(i, buf.data());
    EXPECT_EQ(std::memcmp(buf.data(), rows.row(i), width), 0) << "row " << i;
    EXPECT_EQ(run->compare(rows.row(i), i), 0);
    EXPECT_TRUE(run->contains_sorted(rows.row(i)));
  }
  Row absent = random_label_row(rng, width);
  absent[0] = 7;  // outside the run's first-label bracket
  EXPECT_FALSE(run->contains_sorted(absent.data()));

  // open() agrees with the writer's view.
  const auto reopened = SealedRun::open(path, width);
  EXPECT_EQ(reopened->rows(), run->rows());
  EXPECT_EQ(reopened->prefix_bytes(), run->prefix_bytes());
  std::remove(path.c_str());
}

TEST(SealedRun, SubtractFromMatchesReference) {
  Rng rng(4102);
  const std::size_t width = 9;
  for (int trial = 0; trial < 20; ++trial) {
    FlatPermStore run_rows = sorted_store(rng, width, 1 + rng.below(120), 2);
    FlatPermStore victim = sorted_store(rng, width, 1 + rng.below(120), 2);
    // Random disjoint sets would make the subtraction a no-op; plant real
    // overlap by copying a slice of the run into the victim.
    for (std::size_t i = 0; i < run_rows.size(); i += 3) {
      victim.push_back(run_rows.row(i));
    }
    victim.sort_unique();

    std::set<Row> model;
    for (std::size_t i = 0; i < victim.size(); ++i) {
      model.emplace(victim.row(i), victim.row(i) + width);
    }
    for (std::size_t i = 0; i < run_rows.size(); ++i) {
      model.erase(Row(run_rows.row(i), run_rows.row(i) + width));
    }

    const auto run = SealedRun::write(temp_path("run_subtract"), run_rows,
                                      /*keep_file=*/false);
    run->subtract_from(victim);
    ASSERT_EQ(victim.size(), model.size());
    std::size_t i = 0;
    for (const Row& row : model) {
      EXPECT_EQ(std::memcmp(victim.row(i), row.data(), width), 0);
      ++i;
    }
  }
}

TEST(SealedRun, TemporaryRunFileIsRemovedWithLastOwner) {
  Rng rng(4103);
  FlatPermStore rows = sorted_store(rng, 5, 10, 1);
  const std::string path = temp_path("run_temp");
  {
    auto run = SealedRun::write(path, rows, /*keep_file=*/false);
    auto second_owner = run;  // shared: survives the first reset
    run.reset();
    EXPECT_EQ(second_owner->rows(), 10u);  // file still mapped and valid
  }
  EXPECT_THROW((void)SealedRun::open(path, 5), qsyn::IoError);
}

class SealedRunCorruption : public ::testing::Test {
 protected:
  std::string fresh_run(const std::string& name) {
    Rng rng(4104);
    FlatPermStore rows = sorted_store(rng, 6, 50, 4);
    const std::string path = temp_path("corrupt_" + name);
    (void)SealedRun::write(path, rows, /*keep_file=*/true);
    return path;
  }
};

TEST_F(SealedRunCorruption, TruncatedHeader) {
  const std::string path = fresh_run("header");
  auto bytes = read_file(path);
  bytes.resize(spill::kRunHeaderBytes - 5);
  write_file(path, bytes);
  EXPECT_THROW((void)SealedRun::open(path, 6), qsyn::CatalogError);
  std::remove(path.c_str());
}

TEST_F(SealedRunCorruption, TruncatedRows) {
  const std::string path = fresh_run("rows");
  auto bytes = read_file(path);
  bytes.resize(bytes.size() - 3);
  write_file(path, bytes);
  EXPECT_THROW((void)SealedRun::open(path, 6), qsyn::CatalogError);
  std::remove(path.c_str());
}

TEST_F(SealedRunCorruption, TrailingBytes) {
  const std::string path = fresh_run("trailing");
  auto bytes = read_file(path);
  bytes.push_back(0);
  write_file(path, bytes);
  EXPECT_THROW((void)SealedRun::open(path, 6), qsyn::CatalogError);
  std::remove(path.c_str());
}

TEST_F(SealedRunCorruption, BadMagicBadVersionWidthMismatch) {
  const std::string path = fresh_run("fields");
  const auto pristine = read_file(path);

  auto bytes = pristine;
  bytes[0] ^= 0xff;
  write_file(path, bytes);
  EXPECT_THROW((void)SealedRun::open(path, 6), qsyn::CatalogError);

  bytes = pristine;
  bytes[11] = 99;  // version u32 at offset 8, low byte
  write_file(path, bytes);
  EXPECT_THROW((void)SealedRun::open(path, 6), qsyn::CatalogError);

  write_file(path, pristine);
  EXPECT_THROW((void)SealedRun::open(path, 7), qsyn::CatalogError);
  EXPECT_NO_THROW((void)SealedRun::open(path, 6));
  std::remove(path.c_str());
}

TEST(SealedRun, MissingFileIsIoError) {
  EXPECT_THROW((void)SealedRun::open(temp_path("run_missing"), 6),
               qsyn::IoError);
}

// --- spilled ShardedPermStore differential ---------------------------------

// Drives a spilled store and its unbounded in-memory twin through the same
// closure-shaped op sequence (sort chunks, subtract against the store, merge
// in what survives) and demands byte-identical observable state throughout.
TEST(ShardedSpillDifferential, RandomizedAgainstInMemoryTwin) {
  Rng rng(5201);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t width = 4 + rng.below(8);
    const std::size_t shards = 1 + rng.below(5);
    // A few hundred bytes per shard: every trial seals multiple runs.
    ShardedPermStore spilled(
        width, shards,
        SpillOptions{shards * (128 + rng.below(512)), ::testing::TempDir()});
    ShardedPermStore plain(width, shards);
    // Both cut at splitters sampled from rows drawn like the model's, as the
    // closure samples its pilot frontier, so every shard sees traffic.
    FlatPermStore pilot(width);
    for (std::size_t i = 0; i < 64 * shards; ++i) {
      pilot.push_back(random_label_row(rng, width).data());
    }
    pilot.sort_unique();
    const FlatPermStore splitters =
        ShardedPermStore::splitters_from(pilot, shards);
    spilled.split(splitters);
    plain.split(splitters);
    ASSERT_EQ(spilled.live_shards(), shards);

    for (int round = 0; round < 8; ++round) {
      // One "chunk" of candidate rows, routed per shard like the sweep does.
      std::vector<FlatPermStore> chunks(
          shards, FlatPermStore(width));
      const std::size_t count = 1 + rng.below(400);
      for (std::size_t i = 0; i < count; ++i) {
        const Row row = random_label_row(rng, width);
        chunks[spilled.shard_of(row.data())].push_back(row.data());
      }
      for (std::size_t s = 0; s < shards; ++s) {
        FlatPermStore& chunk = chunks[s];
        if (chunk.empty()) continue;
        chunk.sort_unique();
        FlatPermStore twin_chunk = chunk;

        spilled.subtract_shard_from(s, chunk);
        spilled.merge_into_shard(s, chunk);

        plain.subtract_shard_from(s, twin_chunk);
        plain.merge_into_shard(s, twin_chunk);
      }
      ASSERT_EQ(spilled.size(), plain.size());
    }
    EXPECT_TRUE(spilled.spilled());
    EXPECT_GT(spilled.run_count(), 0u);
    EXPECT_GT(spilled.disk_bytes(), 0u);
    EXPECT_EQ(plain.disk_bytes(), 0u);

    // Membership agrees on hits and misses.
    for (int probe = 0; probe < 200; ++probe) {
      const Row row = random_label_row(rng, width);
      EXPECT_EQ(spilled.contains_sorted(row.data()),
                plain.contains_sorted(row.data()));
    }

    // flatten() (non-destructive) and drain_sorted() (destructive, possibly
    // file-backed) both equal the in-memory drain byte for byte.
    const FlatPermStore flat = spilled.flatten();
    const FlatPermStore spilled_drain = spilled.drain_sorted();
    const FlatPermStore plain_drain = plain.drain_sorted();
    expect_same_rows(flat, plain_drain);
    expect_same_rows(spilled_drain, plain_drain);
    EXPECT_TRUE(spilled.empty());
    EXPECT_FALSE(spilled.spilled());
  }
}

TEST(ShardedSpill, AbsorbShardAdoptsRuns) {
  Rng rng(5202);
  const std::size_t width = 6;
  ShardedPermStore fresh(width, 1, SpillOptions{64, ::testing::TempDir()});
  ShardedPermStore seen(width, 1, SpillOptions{1 << 20, ::testing::TempDir()});
  ShardedPermStore reference(width, 1);

  for (int round = 0; round < 6; ++round) {
    FlatPermStore chunk(width);
    for (int i = 0; i < 64; ++i) {
      const Row row = random_label_row(rng, width);
      chunk.push_back(row.data());
    }
    chunk.sort_unique();
    FlatPermStore twin = chunk;
    fresh.subtract_shard_from(0, chunk);
    fresh.merge_into_shard(0, chunk);
    reference.subtract_shard_from(0, twin);
    reference.merge_into_shard(0, twin);
  }
  ASSERT_TRUE(fresh.spilled());
  seen.absorb_shard(0, fresh);
  EXPECT_EQ(seen.size(), reference.size());
  EXPECT_GT(seen.run_count(), 0u);

  // The adopted runs outlive the donor.
  fresh.clear();
  FlatPermStore drained = seen.drain_sorted();
  FlatPermStore expected = reference.drain_sorted();
  expect_same_rows(drained, expected);
}

TEST(ShardedSpill, SplitOfSpilledStoreKeepsRowsWithinBudget) {
  // The closure re-splits its seen set once, possibly after it has already
  // sealed runs: every row, sealed or active, must reach its new shard, and
  // the heap must stay within the budget re-sliced over the new shards.
  Rng rng(5205);
  const std::size_t width = 8;
  const std::size_t shards = 4;
  const std::size_t budget = 2048;
  ShardedPermStore spilled(width, shards,
                           SpillOptions{budget, ::testing::TempDir()});
  ShardedPermStore plain(width, shards);
  for (int round = 0; round < 6; ++round) {
    FlatPermStore chunk(width);
    for (int i = 0; i < 200; ++i) {
      chunk.push_back(random_label_row(rng, width).data());
    }
    chunk.sort_unique();
    FlatPermStore twin = chunk;
    spilled.subtract_shard_from(0, chunk);
    spilled.merge_into_shard(0, chunk);
    plain.subtract_shard_from(0, twin);
    plain.merge_into_shard(0, twin);
  }
  ASSERT_TRUE(spilled.spilled());
  EXPECT_LE(spilled.memory_bytes(), budget);

  const FlatPermStore splitters =
      ShardedPermStore::splitters_from(plain.flatten(), shards);
  spilled.split(splitters);
  plain.split(splitters);
  EXPECT_LE(spilled.memory_bytes(), budget);
  std::size_t shards_with_runs = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_EQ(spilled.shard_size(s), plain.shard_size(s)) << "shard " << s;
    if (spilled.shard_run_count(s) > 0) ++shards_with_runs;
  }
  EXPECT_GT(shards_with_runs, 1u);
  for (int probe = 0; probe < 200; ++probe) {
    const Row row = random_label_row(rng, width);
    EXPECT_EQ(spilled.contains_sorted(row.data()),
              plain.contains_sorted(row.data()));
  }
  const FlatPermStore spilled_drain = spilled.drain_sorted();
  const FlatPermStore plain_drain = plain.drain_sorted();
  expect_same_rows(spilled_drain, plain_drain);
}

TEST(ShardedSpill, LegacyWholeStoreOpsRejectSpilledStores) {
  Rng rng(5203);
  const std::size_t width = 5;
  ShardedPermStore spilled(width, 1, SpillOptions{32, ::testing::TempDir()});
  FlatPermStore chunk(width);
  for (int i = 0; i < 64; ++i) {
    chunk.push_back(random_label_row(rng, width).data());
  }
  chunk.sort_unique();
  spilled.merge_into_shard(0, chunk);
  ASSERT_TRUE(spilled.spilled());

  ShardedPermStore other(width, 1);
  EXPECT_THROW(spilled.sort_unique(), qsyn::LogicError);
  EXPECT_THROW(spilled.subtract_sorted(other), qsyn::LogicError);
  EXPECT_THROW(spilled.merge_sorted(other), qsyn::LogicError);
  EXPECT_THROW(other.subtract_sorted(spilled), qsyn::LogicError);
  EXPECT_THROW(other.merge_sorted(spilled), qsyn::LogicError);
}

TEST(ShardedSpill, DrainSortedMatchesFlattenInMemoryToo) {
  // drain_sorted() honors the unified contract on plain in-memory stores:
  // same rows as a flatten(), then the store is empty.
  Rng rng(5204);
  const std::size_t width = 7;
  for (const std::size_t shards : {std::size_t(1), std::size_t(4)}) {
    ShardedPermStore a(width, shards);
    for (int i = 0; i < 300; ++i) {
      const Row row = random_label_row(rng, width);
      a.push_back(row.data());
    }
    a.sort_unique();
    const FlatPermStore flat = a.flatten();
    const FlatPermStore drained = a.drain_sorted();
    expect_same_rows(drained, flat);
    EXPECT_TRUE(a.empty());
  }
}

// --- spill-invariance of the FMCF closure ----------------------------------

class SpilledClosure3 : public ::testing::Test {
 protected:
  static const FmcfEnumerator& in_memory() {
    static const FmcfEnumerator enumerator = [] {
      FmcfEnumerator e(library(), ClosureConfig{});
      e.run_to(7);
      return e;
    }();
    return enumerator;
  }

  static const gates::GateLibrary& library() {
    static const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
    static const gates::GateLibrary lib(domain);
    return lib;
  }

  static ClosureConfig spill_config(std::size_t threads) {
    ClosureConfig config;
    config.threads = threads;
    // ~64 KiB per store: the 3-wire closure holds ~26 MB of rows by cb = 7,
    // so every level past the first few seals multiple runs per shard.
    config.spill_budget_bytes = std::size_t(64) << 10;
    config.spill_dir = ::testing::TempDir();
    return config;
  }

  static void expect_stats_identical(const FmcfEnumerator& spilled) {
    const auto& expected = in_memory().stats();
    const auto& actual = spilled.stats();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(actual[k].cost, expected[k].cost) << "level " << k;
      EXPECT_EQ(actual[k].frontier, expected[k].frontier) << "level " << k;
      EXPECT_EQ(actual[k].g_new, expected[k].g_new) << "level " << k;
      EXPECT_EQ(actual[k].pre_g, expected[k].pre_g) << "level " << k;
      EXPECT_EQ(actual[k].seen, expected[k].seen) << "level " << k;
    }
  }
};

/// At least half the seen set's shards hold rows: a sharded sweep that
/// parks every row in one shard cannot pass a shard-invariance test.
void expect_most_shards_filled(const FmcfEnumerator& closure) {
  const std::vector<std::size_t> rows = closure.seen_shard_rows();
  ASSERT_GT(rows.size(), 1u);
  const auto filled = static_cast<std::size_t>(std::count_if(
      rows.begin(), rows.end(), [](std::size_t n) { return n > 0; }));
  EXPECT_GE(2 * filled, rows.size())
      << filled << " of " << rows.size() << " shards hold rows";
}

TEST_F(SpilledClosure3, StatsIdenticalSingleThread) {
  FmcfEnumerator spilled(library(), [] {
    ClosureConfig config = spill_config(1);
    return config;
  }());
  spilled.run_to(7);
  EXPECT_GT(spilled.disk_bytes(), 0u);
  expect_stats_identical(spilled);

  // Spot-check query parity: same G entry, same witness cost, same row.
  const auto toffoli = perm::Permutation::from_cycles("(7,8)", 8);
  const auto mem_entry = in_memory().find(toffoli);
  const auto spill_entry = spilled.find(toffoli);
  ASSERT_TRUE(mem_entry.has_value());
  ASSERT_TRUE(spill_entry.has_value());
  EXPECT_EQ(spill_entry->cost, mem_entry->cost);
  EXPECT_EQ(spill_entry->frontier_index, mem_entry->frontier_index);
  const gates::Cascade cascade = spilled.witness(*spill_entry);
  EXPECT_EQ(cascade.size(), spill_entry->cost);
}

TEST_F(SpilledClosure3, StatsIdenticalMultiThread) {
  FmcfEnumerator spilled(library(), spill_config(4));
  spilled.run_to(7);
  EXPECT_GT(spilled.disk_bytes(), 0u);
  expect_stats_identical(spilled);
  expect_most_shards_filled(spilled);
}

TEST_F(SpilledClosure3, SpilledCatalogRoundTrips) {
  FmcfEnumerator spilled(library(), spill_config(2));
  spilled.run_to(5);
  expect_most_shards_filled(spilled);
  const std::string path = temp_path("spilled_catalog");
  spilled.save_catalog(path);

  FmcfEnumerator reopened =
      FmcfEnumerator::open_catalog(path, library(), ClosureConfig{});
  ASSERT_EQ(reopened.stats().size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(reopened.stats()[k].frontier, spilled.stats()[k].frontier);
    EXPECT_EQ(reopened.stats()[k].g_new, spilled.stats()[k].g_new);
  }
  const auto cnot = perm::Permutation::from_cycles("(3,4)(7,8)", 8);
  const auto entry = reopened.find(cnot);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->cost, spilled.find(cnot)->cost);
  std::remove(path.c_str());
}

// --- spilled, split 4-wire closure -----------------------------------------

// The 4-wire closure cuts its shards after B[3] (the first frontier with 64
// rows per shard at 16 shards), so level 4 runs on split stores.
const gates::GateLibrary& library4() {
  static const gates::GateLibrary lib = gates::GateLibrary::standard(4);
  return lib;
}

ClosureConfig spill_config4(std::size_t budget_bytes) {
  ClosureConfig config;
  config.threads = 4;
  config.shards = 16;
  config.spill_budget_bytes = budget_bytes;
  config.spill_dir = ::testing::TempDir();
  return config;
}

TEST(SpilledClosure4, SeenStoreStaysWithinBudgetOnEveryLevel) {
  // The budget means the configured bytes: the unsplit seen set gets all of
  // it, a split one slices it over its shards.
  const std::size_t budget = std::size_t(1) << 20;
  ClosureConfig config = spill_config4(budget);
  config.track_witnesses = false;
  FmcfEnumerator closure(library4(), config);
  for (unsigned k = 1; k <= 4; ++k) {
    closure.advance();
    EXPECT_LE(closure.seen_store().memory_bytes(), budget) << "level " << k;
  }
  ASSERT_EQ(closure.seen_store().live_shards(), 16u);
  std::size_t shards_with_runs = 0;
  for (std::size_t s = 0; s < 16; ++s) {
    if (closure.seen_store().shard_run_count(s) > 0) ++shards_with_runs;
  }
  EXPECT_GT(shards_with_runs, 1u);
  expect_most_shards_filled(closure);
}

TEST(SpilledClosure4, ResplitOfSpilledSeenSetIsByteIdentical) {
  // A budget small enough that the unsplit seen set seals runs before the
  // pilot level: the one re-split then streams sealed runs into the new
  // shards, and the closure must still match the single-threaded in-memory
  // sweep in every stat and every frontier byte.
  ClosureConfig single;
  single.threads = 1;
  FmcfEnumerator reference(library4(), single);
  reference.run_to(4);

  FmcfEnumerator spilled(library4(), spill_config4(std::size_t(64) << 10));
  bool spilled_before_split = false;
  while (spilled.levels_done() < 4) {
    spilled.advance();
    if (spilled.seen_store().live_shards() == 1) {
      spilled_before_split = spilled.seen_store().spilled();
    }
  }
  EXPECT_TRUE(spilled_before_split);
  EXPECT_EQ(spilled.seen_store().live_shards(), 16u);
  for (unsigned k = 0; k <= 4; ++k) {
    if (k > 0) {
      const FmcfLevelStats& want = reference.stats()[k - 1];
      const FmcfLevelStats& got = spilled.stats()[k - 1];
      EXPECT_EQ(got.frontier, want.frontier) << "level " << k;
      EXPECT_EQ(got.g_new, want.g_new) << "level " << k;
      EXPECT_EQ(got.pre_g, want.pre_g) << "level " << k;
      EXPECT_EQ(got.seen, want.seen) << "level " << k;
    }
    expect_same_rows(spilled.frontier(k), reference.frontier(k));
  }
  expect_most_shards_filled(spilled);
}

// --- configuration resolution ----------------------------------------------

#ifndef _WIN32
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
  }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(ClosureConfigResolution, SpillBudgetEnvFallback) {
  EnvGuard guard("QSYN_SPILL_BUDGET_MB");
  ::unsetenv("QSYN_SPILL_BUDGET_MB");
  EXPECT_EQ(resolve_spill_budget(0), 0u);  // unset: never spill
  ::setenv("QSYN_SPILL_BUDGET_MB", "3", 1);
  EXPECT_EQ(resolve_spill_budget(0), std::size_t(3) << 20);
  // An explicit budget beats the environment.
  EXPECT_EQ(resolve_spill_budget(12345), 12345u);
  ::setenv("QSYN_SPILL_BUDGET_MB", "nonsense", 1);
  EXPECT_EQ(resolve_spill_budget(0), 0u);
}

TEST(ClosureConfigResolution, SpillDirEnvFallback) {
  EnvGuard guard("QSYN_SPILL_DIR");
  ::setenv("QSYN_SPILL_DIR", "/some/spill/dir", 1);
  EXPECT_EQ(resolve_spill_dir(""), "/some/spill/dir");
  EXPECT_EQ(resolve_spill_dir("/explicit/wins"), "/explicit/wins");
  ::unsetenv("QSYN_SPILL_DIR");
  EXPECT_FALSE(resolve_spill_dir("").empty());  // system temp dir
}

TEST(ClosureConfigResolution, SpillBudgetRejectsTrailingGarbage) {
  // The strtoul regression: "64abc" must not half-apply as a 64 MiB budget.
  EnvGuard guard("QSYN_SPILL_BUDGET_MB");
  ::setenv("QSYN_SPILL_BUDGET_MB", "64abc", 1);
  EXPECT_EQ(resolve_spill_budget(0), 0u);
  ::setenv("QSYN_SPILL_BUDGET_MB", "0", 1);
  EXPECT_EQ(resolve_spill_budget(0), 0u);  // below the [1, ...] floor
  ::setenv("QSYN_SPILL_BUDGET_MB", "64", 1);
  EXPECT_EQ(resolve_spill_budget(0), std::size_t(64) << 20);
}

TEST(ClosureConfigResolution, BogusSpillDirIsIoErrorAtFirstSpill) {
  // A bogus QSYN_SPILL_DIR must surface as qsyn::IoError at the first seal
  // — not scatter run files into the working directory.
  EnvGuard guard("QSYN_SPILL_DIR");
  ::setenv("QSYN_SPILL_DIR", "/nonexistent/qsyn/spill/dir", 1);
  const std::string dir = resolve_spill_dir("");
  EXPECT_EQ(dir, "/nonexistent/qsyn/spill/dir");
  Rng rng(5301);
  const std::size_t width = 6;
  ShardedPermStore store(width, 1, SpillOptions{32, dir});
  FlatPermStore chunk(width);
  for (int i = 0; i < 64; ++i) {
    chunk.push_back(random_label_row(rng, width).data());
  }
  chunk.sort_unique();
  EXPECT_THROW(store.merge_into_shard(0, chunk), qsyn::IoError);
}

TEST(ClosureConfigResolution, TempDirFallbackIsObservable) {
  // With QSYN_SPILL_DIR unset and the system temp dir unresolvable
  // (libstdc++ consults TMPDIR first), the "." degradation must be
  // observable: the fallback counter ticks and a warning lands on stderr
  // (once per process; a prior test may already have consumed it, so only
  // the counter is asserted strictly).
  EnvGuard spill_guard("QSYN_SPILL_DIR");
  EnvGuard tmp_guard("TMPDIR");
  ::unsetenv("QSYN_SPILL_DIR");
  ::setenv("TMPDIR", "/nonexistent/qsyn/tmp", 1);
  std::error_code ec;
  std::filesystem::temp_directory_path(ec);
  if (!ec) {
    GTEST_SKIP() << "this libstdc++ resolves a temp dir despite bogus TMPDIR";
  }
  const std::size_t before = spill_dir_fallback_count();
  EXPECT_EQ(resolve_spill_dir(""), ".");
  EXPECT_EQ(spill_dir_fallback_count(), before + 1);
  EXPECT_EQ(resolve_spill_dir(""), ".");
  EXPECT_EQ(spill_dir_fallback_count(), before + 2);
}
#endif  // !_WIN32

}  // namespace
}  // namespace qsyn::synth
