// Tests for the out-of-core closure machinery: the append-only spill writer
// and its temporary-file policy, read-only store windows over its files, the
// raw-row run files a spilled ShardedPermStore seals and their ownership, the
// spilled store differential against its in-memory twin (and its re-split),
// the spill-invariance of the FMCF per-level stats, frontier bytes and heap
// budget on split stores, and spill-file cleanup when a closure dies or
// fails mid-write.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#ifndef _WIN32
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "common/error.h"
#include "common/io/mmap_file.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "synth/closure_config.h"
#include "synth/flat_perm_store.h"
#include "synth/fmcf.h"
#include "synth/sharded_perm_store.h"

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

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

// A fresh, empty spill directory of this process.
std::string fresh_spill_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::size_t files_in(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

// --- SpillWriter -----------------------------------------------------------

TEST(SpillWriter, AppendSealReopen) {
  const std::string path = temp_path("writer_basic");
  std::vector<std::uint8_t> chunk(300000);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::uint8_t>(i * 7);
  }
  // One append too big to buffer (written through), then several that
  // fill and flush the buffer.
  std::vector<std::uint8_t> big(io::kSpillWriteBufferBytes + 3, 0x5a);
  {
    io::SpillWriter writer(path);
    writer.append(big.data(), big.size());
    for (int rep = 0; rep < 8; ++rep) writer.append(chunk.data(), chunk.size());
    writer.append(chunk.data(), 0);
    const auto sealed = writer.seal();
    ASSERT_EQ(sealed->size(), big.size() + 8 * chunk.size());
    EXPECT_EQ(sealed->path(), path);
    EXPECT_EQ(sealed->data()[big.size() - 1], 0x5a);
    EXPECT_EQ(std::memcmp(sealed->data() + big.size() + 7 * chunk.size(),
                          chunk.data(), chunk.size()),
              0);
    // While a sealed view lives, the file reopens as a second mapping of
    // the same bytes.
    const auto reopened = io::MmapFile::map(path);
    ASSERT_EQ(reopened->size(), sealed->size());
    EXPECT_EQ(reopened->data()[big.size() + 42],
              static_cast<std::uint8_t>(42 * 7));
    EXPECT_EQ(std::memcmp(reopened->data(), sealed->data(), sealed->size()),
              0);
  }
  EXPECT_FALSE(file_exists(path));
}

TEST(SpillWriter, SealRejectsFurtherUse) {
  const std::string path = temp_path("writer_sealed");
  io::SpillWriter writer(path);
  const std::uint8_t byte = 0xab;
  writer.append(&byte, 1);
  const auto sealed = writer.seal();
  EXPECT_THROW(writer.append(&byte, 1), qsyn::LogicError);
  EXPECT_THROW((void)writer.seal(), qsyn::LogicError);
  ASSERT_EQ(sealed->size(), 1u);
  EXPECT_EQ(sealed->data()[0], 0xab);
}

TEST(SpillWriter, UnusableDirectoryIsIoError) {
  EXPECT_THROW(io::SpillWriter(temp_path("no_such_dir") + "/x/y/z"),
               qsyn::IoError);
}

TEST(SpillWriter, TemporaryIsRemovedWithLastView) {
  const std::string path = temp_path("writer_temp");
  std::shared_ptr<const io::MmapFile> second_owner;
  {
    io::SpillWriter writer(path);
    const std::uint8_t byte = 1;
    writer.append(&byte, 1);
    auto sealed = writer.seal();
    second_owner = sealed;
  }
  // The writer is gone, but a view still owns the temporary.
  EXPECT_TRUE(file_exists(path));
  EXPECT_EQ(second_owner->data()[0], 1);
  second_owner.reset();
  EXPECT_FALSE(file_exists(path));
  EXPECT_THROW((void)io::MmapFile::map(path), qsyn::IoError);
}

TEST(SpillWriter, UnsealedWriterRemovesItsFile) {
  const std::string path = temp_path("writer_unsealed");
  {
    io::SpillWriter writer(path);
    const std::uint8_t byte = 9;
    writer.append(&byte, 1);
    EXPECT_TRUE(file_exists(path));
  }
  EXPECT_FALSE(file_exists(path));
}

TEST(SpillWriter, SealedFileServesAReadOnlyStore) {
  const std::string path = temp_path("writer_rows");
  FlatPermStore rows(4);
  rows.push_back(perm::Permutation::from_cycles("(3,4)", 4));
  rows.push_back(perm::Permutation::from_cycles("(1,2)", 4));
  rows.sort_unique();
  {
    io::SpillWriter writer(path);
    writer.append(rows.data(), rows.size_bytes());
    const auto file = writer.seal();
    FlatPermStore store(4, file, 0, file->size());
    expect_same_rows(store, rows);
    EXPECT_TRUE(store.read_only());
    EXPECT_EQ(store.memory_bytes(), 0u);
    EXPECT_EQ(store.disk_bytes(), 8u);
    EXPECT_THROW(store.push_back(perm::Permutation::identity(4)),
                 qsyn::LogicError);
    EXPECT_THROW(store.sort_unique(), qsyn::LogicError);
    EXPECT_THROW(store.assign_rows({}), qsyn::LogicError);
    EXPECT_EQ(store.permutation(1).to_cycle_string(), "(1,2)");
    // A copy is a writable in-memory store.
    FlatPermStore copy = store;
    EXPECT_FALSE(copy.read_only());
    copy.push_back(perm::Permutation::identity(4));
    EXPECT_EQ(copy.size(), 3u);
    // While the sealed view lives, the bytes reopen as a window over a
    // fresh mapping.
    const auto reopened_file = io::MmapFile::map(path);
    FlatPermStore reopened(4, reopened_file, 0, reopened_file->size());
    expect_same_rows(reopened, rows);
    EXPECT_TRUE(reopened.read_only());
  }
  EXPECT_FALSE(file_exists(path));
}

TEST(SpillWriter, RangeWritersFillDisjointRangesOfOneFile) {
  // Three ranges filled last to first, the middle one larger than a range
  // writer's buffer (flushes, then writes a large append through).
  const std::size_t big = io::kSpillWriteBufferBytes + 1000;
  const std::vector<std::size_t> sizes = {10, big, 3};
  std::vector<std::uint8_t> expected;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    for (std::size_t i = 0; i < sizes[r]; ++i) {
      expected.push_back(static_cast<std::uint8_t>(r * 50 + i % 7));
    }
  }
  const std::string path = temp_path("writer_ranges");
  io::SpillWriter writer(path);
  std::size_t offset = expected.size();
  for (std::size_t r = sizes.size(); r-- > 0;) {
    offset -= sizes[r];
    io::SpillRangeWriter range(writer, offset, sizes[r]);
    range.append(expected.data() + offset, 2);
    range.append(expected.data() + offset + 2, sizes[r] - 2);
    EXPECT_THROW(range.append(expected.data(), 1), qsyn::LogicError);
    range.finish();
  }
  const auto file = writer.seal();
  ASSERT_EQ(file->size(), expected.size());
  EXPECT_EQ(std::memcmp(file->data(), expected.data(), expected.size()), 0);

  io::SpillWriter short_writer(temp_path("writer_short"));
  io::SpillRangeWriter range(short_writer, 0, 4);
  range.append(expected.data(), 3);
  EXPECT_THROW(range.finish(), qsyn::LogicError);
}

// --- read-only windows over writer files ----------------------------------

TEST(SpillWindow, WriterFileRoundTrips) {
  const std::string path = temp_path("window_file");
  EXPECT_FALSE(FlatPermStore(3).read_only());
  {
    FlatPermStore row(3);
    row.push_back(perm::Permutation::from_cycles("(1,3)", 3));
    io::SpillWriter writer(path);
    writer.append(row.data(), row.size_bytes());
    const auto sealed = writer.seal();
    // Reopened while the sealed view lives: a window over a second mapping.
    const auto file = io::MmapFile::map(path);
    FlatPermStore mapped(3, file, 0, file->size());
    EXPECT_TRUE(mapped.read_only());
    ASSERT_EQ(mapped.size(), 1u);
    EXPECT_EQ(mapped.permutation(0).to_cycle_string(), "(1,3)");
    // An empty window at the end of the file is a valid empty store.
    FlatPermStore tail(3, file, file->size(), 0);
    EXPECT_TRUE(tail.read_only());
    EXPECT_TRUE(tail.empty());
  }
  EXPECT_FALSE(file_exists(path));
}

TEST(SpillWindow, FractionalRowIsLogicError) {
  const std::string path = temp_path("window_fraction");
  write_file(path, {1, 2, 3, 4, 5});  // not a multiple of width 3
  const auto file = io::MmapFile::map(path);
  EXPECT_THROW(FlatPermStore(3, file, 0, file->size()), qsyn::LogicError);
  EXPECT_NO_THROW(FlatPermStore(3, file, 2, 3));
  std::remove(path.c_str());
}

// --- spilled ShardedPermStore differential ---------------------------------

/// Membership through the closure's filter: a row survives
/// subtract_shard_from exactly when its shard (active rows and runs) does
/// not hold it.
bool holds(const ShardedPermStore& store, const Row& row) {
  FlatPermStore probe(store.width());
  probe.push_back(row.data());
  store.subtract_shard_from(store.shard_of(row.data()), probe);
  return probe.empty();
}

/// All rows of `store` in order, leaving it intact (drains a copy, which
/// shares the sealed runs).
FlatPermStore drained_copy(const ShardedPermStore& store) {
  ShardedPermStore copy = store;
  return copy.drain_sorted();
}

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
      EXPECT_EQ(holds(spilled, row), holds(plain, row));
    }

    // A drained copy (the original keeps its runs) and drain_sorted() itself
    // (destructive, file-backed) both equal the in-memory drain byte for
    // byte.
    const FlatPermStore flat = drained_copy(spilled);
    EXPECT_TRUE(spilled.spilled());
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
  const std::string dir = fresh_spill_dir("absorb");
  ShardedPermStore fresh(width, 1, SpillOptions{64, dir});
  ShardedPermStore seen(width, 1, SpillOptions{1 << 20, dir});
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
  const std::size_t runs = fresh.run_count();
  EXPECT_EQ(files_in(dir), runs);  // one temporary file per sealed run
  seen.absorb_shard(0, fresh);
  EXPECT_EQ(seen.size(), reference.size());
  EXPECT_EQ(seen.run_count(), runs);
  EXPECT_EQ(files_in(dir), runs);  // adopted by reference, not copied

  // The adopted runs outlive the donor: its clear() drops its views, but
  // the files stay while the adopter holds them.
  fresh.clear();
  EXPECT_EQ(files_in(dir), runs);
  const FlatPermStore expected = reference.drain_sorted();
  expect_same_rows(drained_copy(seen), expected);

  // Once both stores are cleared, no run file is left.
  seen.clear();
  EXPECT_EQ(files_in(dir), 0u) << "spill files leaked in " << dir;
  std::filesystem::remove_all(dir);
}

TEST(ShardedSpill, RunFilesHoldTheShardsRawRows) {
  // A sealed run is its shard's sorted rows byte for byte: no header, and
  // no shared prefix stripped, although every row here starts with the
  // same label. So the run files hold (sealed rows) x (row stride) bytes,
  // and each one reads back as sorted rows of the store.
  Rng rng(5208);
  const std::size_t width = 12;
  const std::size_t shards = 4;
  const std::string dir = fresh_spill_dir("raw_runs");
  std::set<Row> model;
  {
    FlatPermStore sample(width);
    for (int i = 0; i < 256; ++i) {
      Row row = random_label_row(rng, width);
      row[0] = 3;
      sample.push_back(row.data());
    }
    sample.sort_unique();
    ShardedPermStore store(width, shards, SpillOptions{shards * 96, dir});
    store.split(ShardedPermStore::splitters_from(sample, shards));
    for (int round = 0; round < 6; ++round) {
      std::vector<FlatPermStore> chunks(shards, FlatPermStore(width));
      for (int i = 0; i < 40; ++i) {
        Row row = random_label_row(rng, width);
        row[0] = 3;
        chunks[store.shard_of(row.data())].push_back(row.data());
        model.insert(row);
      }
      for (std::size_t s = 0; s < shards; ++s) {
        chunks[s].sort_unique();
        store.subtract_shard_from(s, chunks[s]);
        store.merge_into_shard(s, chunks[s]);
      }
    }
    ASSERT_EQ(store.size(), model.size());
    std::size_t active_rows = 0;
    std::size_t shards_with_runs = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      active_rows += store.shard(s).size();
      if (store.shard_run_count(s) > 1) ++shards_with_runs;
    }
    EXPECT_GT(shards_with_runs, 1u);
    const std::size_t sealed_rows = store.size() - active_rows;
    EXPECT_EQ(store.disk_bytes(), sealed_rows * width);

    std::size_t file_rows = 0;
    ASSERT_EQ(files_in(dir), store.run_count());
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const Row bytes = read_file(entry.path().string());
      ASSERT_EQ(bytes.size() % width, 0u) << entry.path();
      for (std::size_t i = 0; i < bytes.size(); i += width) {
        const Row row(bytes.begin() + static_cast<std::ptrdiff_t>(i),
                      bytes.begin() + static_cast<std::ptrdiff_t>(i + width));
        EXPECT_EQ(model.count(row), 1u) << entry.path() << " row " << i;
        if (i > 0) {
          EXPECT_LT(std::memcmp(bytes.data() + i - width, row.data(), width),
                    0)
              << entry.path() << " row " << i;
        }
      }
      file_rows += bytes.size() / width;
    }
    EXPECT_EQ(file_rows, sealed_rows);

    const FlatPermStore drained = store.drain_sorted();
    ASSERT_EQ(drained.size(), model.size());
    std::size_t i = 0;
    for (const Row& row : model) {
      EXPECT_EQ(std::memcmp(drained.row(i), row.data(), width), 0)
          << "row " << i;
      ++i;
    }
  }
  EXPECT_EQ(files_in(dir), 0u) << "spill files leaked in " << dir;
  std::filesystem::remove_all(dir);
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
      ShardedPermStore::splitters_from(drained_copy(plain), shards);
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
    EXPECT_EQ(holds(spilled, row), holds(plain, row));
  }
  const FlatPermStore spilled_drain = spilled.drain_sorted();
  const FlatPermStore plain_drain = plain.drain_sorted();
  expect_same_rows(spilled_drain, plain_drain);
}

TEST(ShardedSpill, DrainSortedMatchesFlattenInMemoryToo) {
  // drain_sorted() honors the unified contract on plain in-memory stores,
  // one shard or several: the sorted rows loaded, then the store is empty.
  Rng rng(5204);
  const std::size_t width = 7;
  for (const std::size_t shards : {std::size_t(1), std::size_t(4)}) {
    FlatPermStore rows(width);
    for (int i = 0; i < 300; ++i) {
      rows.push_back(random_label_row(rng, width).data());
    }
    rows.sort_unique();
    ShardedPermStore a(width, shards);
    a.split(ShardedPermStore::splitters_from(rows, shards));
    std::vector<FlatPermStore> chunks(shards, FlatPermStore(width));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      chunks[a.shard_of(rows.row(i))].push_back(rows.row(i));
    }
    for (std::size_t s = 0; s < shards; ++s) a.merge_into_shard(s, chunks[s]);
    EXPECT_EQ(a.size(), rows.size());
    expect_same_rows(a.drain_sorted(), rows);
    EXPECT_TRUE(a.empty());
  }
}

TEST(ShardedSpill, DrainSortedAroundEmptyShards) {
  // The spilled drain streams each shard's active rows and sealed runs in
  // shard order; empty shards first, in the middle, last, everywhere, or all
  // but one must not disturb the concatenation. One- and two-byte labels.
  constexpr std::size_t kShards = 6;
  const std::vector<std::vector<std::size_t>> fillings = {
      {1, 2, 3, 4, 5}, {0, 1, 4, 5}, {0, 1, 2, 3, 4}, {3}, {}};
  Rng rng(5205);
  for (const std::size_t width : {std::size_t(7), std::size_t(300)}) {
    const std::size_t label_bytes = width <= 256 ? 1 : 2;
    FlatPermStore sample(width);
    Row row(width * label_bytes);
    for (int i = 0; i < 400; ++i) {
      for (std::size_t l = 0; l < width; ++l) {
        FlatPermStore::write_label(
            row.data(), l, label_bytes,
            rng.below(static_cast<std::uint32_t>(width)));
      }
      sample.push_back(row.data());
    }
    sample.sort_unique();
    const FlatPermStore splitters =
        ShardedPermStore::splitters_from(sample, kShards);

    for (const std::vector<std::size_t>& filled : fillings) {
      ShardedPermStore store(width, kShards,
                             SpillOptions{kShards * 256, ::testing::TempDir()});
      store.split(splitters);
      FlatPermStore expected(width);
      // Three load rounds, so filled shards hold several runs plus rows.
      for (std::size_t round = 0; round < 3; ++round) {
        std::vector<FlatPermStore> chunks(kShards, FlatPermStore(width));
        for (std::size_t i = round; i < sample.size(); i += 3) {
          const std::size_t s = store.shard_of(sample.row(i));
          if (std::find(filled.begin(), filled.end(), s) == filled.end()) {
            continue;
          }
          chunks[s].push_back(sample.row(i));
          expected.push_back(sample.row(i));
        }
        for (std::size_t s = 0; s < kShards; ++s) {
          store.subtract_shard_from(s, chunks[s]);
          store.merge_into_shard(s, chunks[s]);
        }
      }
      expected.sort_unique();
      for (std::size_t s = 0; s < kShards; ++s) {
        const bool is_filled =
            std::find(filled.begin(), filled.end(), s) != filled.end();
        EXPECT_EQ(store.shard_run_count(s) > 0, is_filled) << "shard " << s;
      }
      const FlatPermStore drained = store.drain_sorted();
      EXPECT_EQ(drained.read_only(), !filled.empty());
      expect_same_rows(drained, expected);
      EXPECT_TRUE(store.empty());
      EXPECT_FALSE(store.spilled());
    }
  }
}

TEST(ShardedSpill, PooledDrainMatchesSerialMerge) {
  // drain_sorted(pool) merges each shard in its own pool task and writes it
  // at the shard's offset of the frontier file. It must equal the serial
  // drain of a copy (which shares the sealed runs) and the rows loaded, byte
  // for byte: with many runs per shard, an empty shard between filled ones
  // and an empty last shard, and on a one-shard store.
  ThreadPool pool(4);
  Rng rng(5206);
  for (const std::size_t width : {std::size_t(7), std::size_t(300)}) {
    const std::size_t label_bytes = width <= 256 ? 1 : 2;
    FlatPermStore sample(width);
    Row row(width * label_bytes);
    for (int i = 0; i < 600; ++i) {
      for (std::size_t l = 0; l < width; ++l) {
        FlatPermStore::write_label(
            row.data(), l, label_bytes,
            rng.below(static_cast<std::uint32_t>(width)));
      }
      sample.push_back(row.data());
    }
    sample.sort_unique();
    for (const std::size_t shards : {std::size_t(1), std::size_t(5)}) {
      const auto filled = [shards](std::size_t s) {
        return shards == 1 || (s != 1 && s != shards - 1);
      };
      ShardedPermStore store(width, shards,
                             SpillOptions{shards * 64, ::testing::TempDir()});
      store.split(ShardedPermStore::splitters_from(sample, shards));
      FlatPermStore expected(width);
      for (std::size_t round = 0; round < 8; ++round) {
        std::vector<FlatPermStore> chunks(shards, FlatPermStore(width));
        for (std::size_t i = round; i < sample.size(); i += 8) {
          const std::size_t s = store.shard_of(sample.row(i));
          if (!filled(s)) continue;
          chunks[s].push_back(sample.row(i));
          expected.push_back(sample.row(i));
        }
        for (std::size_t s = 0; s < shards; ++s) {
          store.subtract_shard_from(s, chunks[s]);
          store.merge_into_shard(s, chunks[s]);
        }
      }
      expected.sort_unique();
      for (std::size_t s = 0; s < shards; ++s) {
        if (filled(s)) {
          EXPECT_GE(store.shard_run_count(s), 4u) << "shard " << s;
        } else {
          EXPECT_EQ(store.shard_size(s), 0u) << "shard " << s;
        }
      }
      const FlatPermStore serial = drained_copy(store);
      const FlatPermStore pooled = store.drain_sorted(&pool);
      EXPECT_TRUE(pooled.read_only());
      expect_same_rows(pooled, serial);
      expect_same_rows(pooled, expected);
      EXPECT_TRUE(store.empty());
      EXPECT_FALSE(store.spilled());
    }
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
    // ~16 KiB per store: the 3-wire closure's seen set holds ~4.4 MB of
    // canonical rows by cb = 7 (its frontiers ~20 MB), so every level past
    // the first few seals multiple runs per shard.
    config.spill_budget_bytes = std::size_t(16) << 10;
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

// --- spill-file cleanup -----------------------------------------------------

#ifndef _WIN32
// Lowers the soft RLIMIT_FSIZE and ignores SIGXFSZ, so a write past the
// limit fails with EFBIG instead of killing the process; restores both.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ok_ = ::getrlimit(RLIMIT_FSIZE, &saved_limit_) == 0;
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ok_ = ok_ && ::sigaction(SIGXFSZ, &ignore, &saved_action_) == 0;
    rlimit lowered = saved_limit_;
    lowered.rlim_cur = std::min(bytes, saved_limit_.rlim_max);
    ok_ = ok_ && ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_limit_);
    ::sigaction(SIGXFSZ, &saved_action_, nullptr);
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  rlimit saved_limit_{};
  struct sigaction saved_action_ {};
  bool ok_ = false;
};

TEST_F(SpilledClosure3, FailedWriteLeavesNoSpillFile) {
  // A 256 KiB file-size cap: the small runs seal, but a level's drained
  // frontier outgrows it and write(2) fails with EFBIG mid-file.
  const std::string dir = fresh_spill_dir("leak_failed");
  {
    ClosureConfig config = spill_config(4);
    config.spill_dir = dir;
    FmcfEnumerator closure(library(), config);
    {
      FileSizeLimit limit(256 << 10);
      ASSERT_TRUE(limit.ok());
      EXPECT_THROW(closure.run_to(6), qsyn::IoError);
    }
  }
  EXPECT_EQ(files_in(dir), 0u) << "spill files leaked in " << dir;
  std::filesystem::remove_all(dir);
}

TEST(ShardedSpill, FailedDrainWriteInALaterShardLeavesNoSpillFile) {
  // The first three shards hold 10 % of the rows each and the last one the
  // other 70 %, and the file-size cap sits at half the frontier: the early
  // shards write their ranges and finish, the last shard's write fails with
  // EFBIG, and the partial frontier file must go — serially and pooled.
  constexpr std::size_t kWidth = 64;  // one-byte labels: 64-byte rows
  constexpr std::size_t kShards = 4;
  Rng rng(5207);
  FlatPermStore rows(kWidth);
  for (int i = 0; i < 4000; ++i) {
    rows.push_back(random_label_row(rng, kWidth).data());
  }
  rows.sort_unique();
  FlatPermStore splitters(kWidth);
  for (std::size_t s = 1; s < kShards; ++s) {
    splitters.push_back(rows.row(s * rows.size() / 10));
  }
  ThreadPool pool(4);
  for (const bool pooled : {false, true}) {
    const std::string dir = fresh_spill_dir("leak_late_shard");
    {
      ShardedPermStore store(kWidth, kShards, SpillOptions{16 << 10, dir});
      store.split(splitters);
      for (std::size_t round = 0; round < 2; ++round) {
        std::vector<FlatPermStore> chunks(kShards, FlatPermStore(kWidth));
        for (std::size_t i = round; i < rows.size(); i += 2) {
          chunks[store.shard_of(rows.row(i))].push_back(rows.row(i));
        }
        for (std::size_t s = 0; s < kShards; ++s) {
          store.merge_into_shard(s, chunks[s]);
        }
      }
      ASSERT_TRUE(store.spilled());
      {
        FileSizeLimit limit(rows.size_bytes() / 2);
        ASSERT_TRUE(limit.ok());
        EXPECT_THROW((void)store.drain_sorted(pooled ? &pool : nullptr),
                     qsyn::IoError);
      }
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_NE(entry.path().extension(), ".drain")
            << "partial frontier file " << entry.path();
      }
    }
    EXPECT_EQ(files_in(dir), 0u) << "spill files leaked in " << dir;
    std::filesystem::remove_all(dir);
  }
}

TEST_F(SpilledClosure3, FinishedClosureLeavesNoSpillFile) {
  const std::string dir = fresh_spill_dir("leak_finished");
  {
    ClosureConfig config = spill_config(4);
    config.spill_dir = dir;
    FmcfEnumerator closure(library(), config);
    closure.run_to(6);
    EXPECT_GT(closure.disk_bytes(), 0u);
    EXPECT_GT(files_in(dir), 0u);  // the runs live while the closure does
  }
  EXPECT_EQ(files_in(dir), 0u) << "spill files leaked in " << dir;
  std::filesystem::remove_all(dir);
}
#endif  // !_WIN32

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
  // it, a split one slices it over its shards. 256 KiB is well under the
  // ~865 KB of canonical rows the seen set holds at k = 4.
  const std::size_t budget = std::size_t(256) << 10;
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
  // A budget small enough that the unsplit seen set seals runs before its
  // first cut (at k = 2 it holds 40 canonical rows, 7040 B): the cuts then
  // stream sealed runs into the new shards, and the closure must still
  // match the single-threaded in-memory sweep in every stat and every
  // frontier byte.
  ClosureConfig single;
  single.threads = 1;
  FmcfEnumerator reference(library4(), single);
  reference.run_to(4);

  FmcfEnumerator spilled(library4(), spill_config4(std::size_t(6) << 10));
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

TEST(SpilledClosure4, MultiRoundMaterializeIsByteIdentical) {
  // B[4] (~18 MB) is several times a 4 MiB budget, but the closure stores
  // only its 4,455 canonical rows, and R[3] x L is 2.6 MB of candidates: a
  // single round that seals nothing. (The 6 KiB budget above runs the rep
  // step in several rounds.) Every frontier built from the reps and every
  // stat must still match the single-threaded in-memory sweep, at 1 and 4
  // threads.
  const std::size_t budget = std::size_t(4) << 20;
  ClosureConfig single;
  single.threads = 1;
  FmcfEnumerator reference(library4(), single);
  reference.run_to(4);
  ASSERT_GT(reference.frontier(4).size_bytes(), 3 * budget);

  for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
    ClosureConfig config;
    config.threads = threads;
    config.spill_budget_bytes = budget;
    config.spill_dir = ::testing::TempDir();
    FmcfEnumerator spilled(library4(), config);
    spilled.run_to(4);
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
  }
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
  const std::filesystem::path resolved =
      std::filesystem::temp_directory_path(ec);
  if (!ec) {
    GTEST_SKIP() << "this libstdc++ resolves a temp dir (" << resolved
                 << ") despite bogus TMPDIR";
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
