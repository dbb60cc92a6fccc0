// Unit tests for the persistent closure catalog: read-only FlatPermStore
// windows over a mapped file, save/reopen round-trips of the FMCF closure,
// corrupt-input hardening of the reader (hand-made cases and a deterministic
// mutation fuzzer), and the concurrent CatalogServer front end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/io/mmap_file.h"
#include "common/rng.h"
#include "gates/library.h"
#include "synth/catalog.h"
#include "synth/catalog_server.h"
#include "synth/fmcf.h"
#include "synth/flat_perm_store.h"
#include "synth/mce.h"
#include "synth/specs.h"

namespace qsyn::synth {
namespace {

// ctest (via gtest_discover_tests) runs every test case as its own process,
// concurrently under -j: temp files must be per-process or the shared-state
// helpers below race across processes on the same path.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "qsyn_" + std::to_string(::getpid()) + "_" +
         name + ".qscat";
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

const gates::GateLibrary& library3() {
  static const gates::GateLibrary lib = gates::GateLibrary::standard(3);
  return lib;
}

/// The shared 3-qubit closure to cb = 5 (deep enough to include Toffoli at
/// cost 5) — computed once for the whole binary.
const FmcfEnumerator& fresh5() {
  static const FmcfEnumerator* enumerator = [] {
    auto* e = new FmcfEnumerator(library3());
    e->run_to(5);
    return e;
  }();
  return *enumerator;
}

/// The cb = 5 closure saved to disk, once.
const std::string& catalog5_path() {
  static const std::string path = [] {
    const std::string p = temp_path("closure3_cb5");
    fresh5().save_catalog(p);
    return p;
  }();
  return path;
}

/// Opens a deliberately damaged copy of the cb = 5 catalog and returns the
/// CatalogError message (failing the test if it does not throw).
std::string corrupt_message(
    const std::string& name,
    const std::function<void(std::vector<std::uint8_t>&)>& mutate) {
  std::vector<std::uint8_t> bytes = read_file(catalog5_path());
  mutate(bytes);
  const std::string path = temp_path("corrupt_" + name);
  write_file(path, bytes);
  std::string message;
  try {
    (void)FmcfEnumerator::open_catalog(path, library3());
    ADD_FAILURE() << "expected CatalogError for " << name;
  } catch (const qsyn::CatalogError& error) {
    message = error.what();
  }
  std::remove(path.c_str());
  return message;
}

// --- mmap helper ----------------------------------------------------------

TEST(MmapFile, MissingFileThrowsIoError) {
  EXPECT_THROW((void)io::MmapFile::map(temp_path("does_not_exist")),
               qsyn::IoError);
}

TEST(MmapFile, DirectoryThrowsIoError) {
  EXPECT_THROW((void)io::MmapFile::map(::testing::TempDir()), qsyn::IoError);
}

TEST(MmapFile, MapsWrittenBytes) {
  const std::string path = temp_path("mmap_bytes");
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 250, 0, 17};
  write_file(path, bytes);
  const auto file = io::MmapFile::map(path);
  ASSERT_EQ(file->size(), bytes.size());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), file->data()));
  EXPECT_EQ(file->path(), path);
  std::remove(path.c_str());
}

// --- read-only mapped windows ----------------------------------------------

TEST(MappedWindow, MmapBackedStoreServesRowsReadOnly) {
  // Serialize a little store, map it back, and check the window is the
  // store: same rows, but every mutation rejected.
  FlatPermStore original(4);
  original.push_back(perm::Permutation::from_cycles("(1,2)", 4));
  original.push_back(perm::Permutation::from_cycles("(2,4)", 4));
  original.sort_unique();

  const std::string path = temp_path("store_rows");
  write_file(path,
             std::vector<std::uint8_t>(
                 original.data(), original.data() + original.size_bytes()));
  const auto file = io::MmapFile::map(path);
  FlatPermStore mapped(4, file, 0, file->size());

  EXPECT_TRUE(mapped.read_only());
  ASSERT_EQ(mapped.size(), original.size());
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    EXPECT_EQ(mapped.permutation(i), original.permutation(i));
  }
  EXPECT_TRUE(mapped.contains_sorted(original.row(1)));
  EXPECT_EQ(mapped.memory_bytes(), 0u) << "mmap pages are not program heap";
  EXPECT_EQ(mapped.disk_bytes(), original.size_bytes());

  EXPECT_THROW(mapped.push_back(perm::Permutation::identity(4)),
               qsyn::LogicError);
  EXPECT_THROW(mapped.sort_unique(), qsyn::LogicError);
  EXPECT_THROW(mapped.reserve_rows(8), qsyn::LogicError);

  // Copies deep-copy into a writable in-memory store.
  FlatPermStore copy = mapped;
  EXPECT_FALSE(copy.read_only());
  EXPECT_EQ(copy.disk_bytes(), 0u);
  copy.push_back(perm::Permutation::identity(4));
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(mapped.size(), 2u);

  // A moved-to store keeps the window; the moved-from one is empty and
  // writable.
  FlatPermStore moved = std::move(mapped);
  EXPECT_TRUE(moved.read_only());
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_FALSE(mapped.read_only());
  EXPECT_TRUE(mapped.empty());

  // clear() resets to an empty writable store even on a read-only one (and
  // clear_keep_capacity degrades to the same reset: there is no heap
  // allocation to keep on an mmap window).
  moved.clear();
  EXPECT_FALSE(moved.read_only());
  EXPECT_TRUE(moved.empty());
  FlatPermStore window(4, file, 0, file->size());
  window.clear_keep_capacity();
  EXPECT_FALSE(window.read_only());
  EXPECT_TRUE(window.empty());
  std::remove(path.c_str());
}

TEST(MappedWindow, PartialWindowMustAlignToRows) {
  const std::string path = temp_path("store_window");
  write_file(path, std::vector<std::uint8_t>(16, 7));
  const auto file = io::MmapFile::map(path);
  // 16 bytes = 4 rows of width 4; a 10-byte window is not a whole number of
  // rows and an out-of-file window must be rejected up front.
  const FlatPermStore middle(4, file, 4, 8);
  EXPECT_EQ(middle.size(), 2u);
  EXPECT_EQ(middle.data(), file->data() + 4) << "zero-copy";
  EXPECT_THROW(FlatPermStore(4, file, 0, 10), qsyn::LogicError);
  EXPECT_THROW(FlatPermStore(4, file, 8, 12), qsyn::LogicError);
  EXPECT_THROW(FlatPermStore(4, file, 20, 0), qsyn::LogicError);
  EXPECT_THROW(FlatPermStore(4, file, 4, ~std::size_t(0) - 3),
               qsyn::LogicError);
  EXPECT_THROW(FlatPermStore(4, nullptr, 0, 0), qsyn::LogicError);
  std::remove(path.c_str());
}

// --- catalog round-trip ----------------------------------------------------

TEST(CatalogRoundTrip, StatsAndGSetsSurvive) {
  const FmcfEnumerator& fresh = fresh5();
  const FmcfEnumerator reopened =
      FmcfEnumerator::open_catalog(catalog5_path(), library3());

  ASSERT_EQ(reopened.levels_done(), fresh.levels_done());
  for (std::size_t i = 0; i < fresh.stats().size(); ++i) {
    const FmcfLevelStats& a = fresh.stats()[i];
    const FmcfLevelStats& b = reopened.stats()[i];
    EXPECT_EQ(b.cost, a.cost);
    EXPECT_EQ(b.frontier, a.frontier);
    EXPECT_EQ(b.g_new, a.g_new);
    EXPECT_EQ(b.pre_g, a.pre_g);
    EXPECT_EQ(b.seen, a.seen);
    EXPECT_EQ(b.seconds, a.seconds) << "double bits round-trip exactly";
  }
  EXPECT_EQ(reopened.seen_count(), fresh.seen_count());
  for (unsigned k = 0; k <= fresh.levels_done(); ++k) {
    EXPECT_EQ(reopened.g_set(k), fresh.g_set(k)) << "G[" << k << "]";
  }
}

TEST(CatalogRoundTrip, FindAndWitnessIdenticalForAllReachablePerms) {
  const FmcfEnumerator& fresh = fresh5();
  const FmcfEnumerator reopened =
      FmcfEnumerator::open_catalog(catalog5_path(), library3());

  // Every closure-reachable 3-qubit reversible circuit, level by level: the
  // reopened catalog must locate it at the same cost and row and reconstruct
  // the same witness cascade, and that cascade must still realize the
  // permutation.
  for (unsigned k = 0; k <= fresh.levels_done(); ++k) {
    for (const perm::Permutation& g : fresh.g_set(k)) {
      const auto a = fresh.find(g);
      const auto b = reopened.find(g);
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(b->cost, a->cost);
      EXPECT_EQ(b->frontier_index, a->frontier_index);
      const gates::Cascade wa = fresh.witness(*a);
      const gates::Cascade wb = reopened.witness(*b);
      EXPECT_EQ(wb.sequence(), wa.sequence());
      EXPECT_EQ(wb.to_binary_permutation(), g.extended_to(8));
    }
  }
}

TEST(CatalogRoundTrip, ImplementationRowsSurvive) {
  const FmcfEnumerator reopened =
      FmcfEnumerator::open_catalog(catalog5_path(), library3());
  // The paper's multiplicities: 2 implementations of Peres at cost 4, 4 of
  // Toffoli at cost 5 — straight out of the mmap'd frontier tables.
  EXPECT_EQ(reopened.implementations(peres_perm(), 4).size(), 2u);
  EXPECT_EQ(
      reopened.implementations(strip_not_prefix(3, toffoli_perm()).core, 5)
          .size(),
      4u);
}

TEST(CatalogRoundTrip, ColdStartDoesZeroAdvanceWork) {
  FmcfEnumerator reopened =
      FmcfEnumerator::open_catalog(catalog5_path(), library3());
  EXPECT_TRUE(reopened.read_only());
  EXPECT_EQ(reopened.levels_done(), 5u);
  // The regression this guards: reopening must never fall back to
  // re-enumerating. advance() is a hard error on a catalog, and run_to()
  // past the stored depth hits the same wall instead of silently sweeping.
  EXPECT_THROW((void)reopened.advance(), qsyn::LogicError);
  EXPECT_THROW(reopened.run_to(7), qsyn::LogicError);
  EXPECT_EQ(reopened.levels_done(), 5u);
  // Queries still work after the rejected advances.
  EXPECT_TRUE(reopened.find(peres_perm()).has_value());
}

TEST(CatalogRoundTrip, FourQubitSpotCheck) {
  const gates::GateLibrary lib4 = gates::GateLibrary::standard(4);
  FmcfEnumerator fresh(lib4);
  fresh.run_to(2);
  const std::string path = temp_path("closure4_cb2");
  fresh.save_catalog(path);
  const FmcfEnumerator reopened = FmcfEnumerator::open_catalog(path, lib4);

  ASSERT_EQ(reopened.levels_done(), 2u);
  // PR 5's pinned 4-qubit closure profile: |G[1]| = 12, |G[2]| = 96.
  EXPECT_EQ(reopened.stats()[0].g_new, 12u);
  EXPECT_EQ(reopened.stats()[1].g_new, 96u);
  for (unsigned k = 0; k <= 2; ++k) {
    EXPECT_EQ(reopened.g_set(k), fresh.g_set(k));
  }
  for (const perm::Permutation& g : fresh.g_set(2)) {
    const auto a = fresh.find(g);
    const auto b = reopened.find(g);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(b->frontier_index, a->frontier_index);
    EXPECT_EQ(reopened.witness(*b).sequence(), fresh.witness(*a).sequence());
  }
  std::remove(path.c_str());
}

TEST(CatalogRoundTrip, CountingClosureReopensWithoutWitnesses) {
  // A pure-counting closure (track_witnesses off) releases old frontiers;
  // its catalog still round-trips the G index, and witness reconstruction
  // fails cleanly rather than reading freed tables.
  ClosureConfig options;
  options.track_witnesses = false;
  FmcfEnumerator fresh(library3(), options);
  fresh.run_to(3);
  const std::string path = temp_path("closure3_counting");
  fresh.save_catalog(path);

  const FmcfEnumerator reopened =
      FmcfEnumerator::open_catalog(path, library3());
  ASSERT_EQ(reopened.levels_done(), 3u);
  for (unsigned k = 0; k <= 3; ++k) {
    EXPECT_EQ(reopened.g_set(k), fresh.g_set(k));
  }
  const auto entry = reopened.find(swap_bc_perm());
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->cost, 3u);
  EXPECT_THROW((void)reopened.witness(*entry), qsyn::LogicError);
  std::remove(path.c_str());
}

TEST(CatalogRoundTrip, ExpressorServesFromReopenedCatalog) {
  McExpressor expressor(
      FmcfEnumerator::open_catalog(catalog5_path(), library3()));
  EXPECT_EQ(expressor.max_cost(), 5u);
  const auto peres = expressor.synthesize(peres_perm());
  ASSERT_TRUE(peres.has_value());
  EXPECT_EQ(peres->cost, 4u);
  EXPECT_EQ(peres->circuit.to_binary_permutation(), peres_perm());
  // Beyond the stored depth the expressor reports "not found" instead of
  // trying to deepen a read-only closure.
  McExpressor shallow(FmcfEnumerator::open_catalog(catalog5_path(), library3()),
                      7);
  EXPECT_FALSE(shallow.synthesize(fredkin_perm()).has_value());
}

// --- corrupt-input hardening ------------------------------------------------

TEST(CatalogCorruption, TruncationsAreRejected) {
  EXPECT_NE(corrupt_message("header_cut",
                            [](std::vector<std::uint8_t>& b) { b.resize(10); })
                .find("truncated"),
            std::string::npos);
  EXPECT_NE(corrupt_message("stats_cut",
                            [](std::vector<std::uint8_t>& b) {
                              b.resize(catalog::kHeaderBytes + 3);
                            })
                .find("truncated"),
            std::string::npos);
  EXPECT_NE(corrupt_message("frontier_cut",
                            [](std::vector<std::uint8_t>& b) {
                              b.resize(b.size() - 5);
                            })
                .find("frontier"),
            std::string::npos);
  EXPECT_NE(corrupt_message("empty",
                            [](std::vector<std::uint8_t>& b) { b.clear(); })
                .find("truncated"),
            std::string::npos);
}

TEST(CatalogCorruption, WrongMagicIsRejected) {
  const std::string message =
      corrupt_message("magic", [](std::vector<std::uint8_t>& b) {
        b[catalog::kMagicOffset] ^= 0xff;
      });
  EXPECT_NE(message.find("magic"), std::string::npos);
}

TEST(CatalogCorruption, WrongVersionIsRejected) {
  const std::string message =
      corrupt_message("version", [](std::vector<std::uint8_t>& b) {
        b[catalog::kVersionOffset + 3] = 99;
      });
  EXPECT_NE(message.find("version 99"), std::string::npos);
}

TEST(CatalogCorruption, Version1FileIsRejectedWithRegenerateMessage) {
  // Version 1 stored full frontiers; catalogs are derived data, so the
  // reader names the version and asks for a new file instead of reading it.
  const std::string message =
      corrupt_message("version1", [](std::vector<std::uint8_t>& b) {
        b[catalog::kVersionOffset + 3] = 1;
      });
  EXPECT_NE(message.find("version 1"), std::string::npos) << message;
  EXPECT_NE(message.find("regenerate"), std::string::npos) << message;
}

TEST(CatalogCorruption, WrongEndianTagIsRejected) {
  const std::string message =
      corrupt_message("endian", [](std::vector<std::uint8_t>& b) {
        std::swap(b[catalog::kEndianOffset], b[catalog::kEndianOffset + 3]);
      });
  EXPECT_NE(message.find("endian"), std::string::npos);
}

TEST(CatalogCorruption, DomainFingerprintMismatchIsRejected) {
  const std::string message =
      corrupt_message("domain_fp", [](std::vector<std::uint8_t>& b) {
        b[catalog::kDomainFingerprintOffset + 5] ^= 0x40;
      });
  EXPECT_NE(message.find("domain fingerprint"), std::string::npos);
}

TEST(CatalogCorruption, LibraryFingerprintMismatchIsRejected) {
  const std::string message =
      corrupt_message("library_fp", [](std::vector<std::uint8_t>& b) {
        b[catalog::kLibraryFingerprintOffset] ^= 0x01;
      });
  EXPECT_NE(message.find("library fingerprint"), std::string::npos);
}

TEST(CatalogCorruption, DifferentLibraryShapeIsRejected) {
  // Opening against a different-arity library fails on the shape check
  // before any fingerprint math.
  const gates::GateLibrary lib4 = gates::GateLibrary::standard(4);
  EXPECT_THROW((void)FmcfEnumerator::open_catalog(catalog5_path(), lib4),
               qsyn::CatalogError);
  // Same domain, fewer gates (a restricted library) is also a shape change.
  const gates::GateLibrary cnots =
      library3().restricted_to(library3().feynman_indices());
  EXPECT_THROW((void)FmcfEnumerator::open_catalog(catalog5_path(), cnots),
               qsyn::CatalogError);
}

TEST(CatalogCorruption, TrailingBytesAreRejected) {
  const std::string message = corrupt_message(
      "trailing", [](std::vector<std::uint8_t>& b) { b.push_back(0); });
  EXPECT_NE(message.find("trailing"), std::string::npos);
}

TEST(CatalogCorruption, UnsortedGIndexIsRejected) {
  const std::string message =
      corrupt_message("unsorted_g", [](std::vector<std::uint8_t>& b) {
        const std::uint32_t levels = catalog::get_u32(
            b.data() + catalog::kLevelsOffset);
        const std::size_t table =
            catalog::kHeaderBytes + levels * catalog::kStatsEntryBytes;
        std::swap_ranges(b.begin() + table,
                         b.begin() + table + catalog::kGEntryBytes,
                         b.begin() + table + catalog::kGEntryBytes);
      });
  EXPECT_NE(message.find("ascending"), std::string::npos);
}

TEST(CatalogCorruption, LevelZeroRepThatIsNotTheIdentityIsRejected) {
  // An all-zero R[0] row has in-domain labels and an orbit of one (every
  // relabeling fixes label 0), so it passes the label and orbit-count
  // checks; only the identity check keeps it from failing every back-walk.
  const std::string message =
      corrupt_message("r0_not_identity", [](std::vector<std::uint8_t>& b) {
        const std::uint32_t levels =
            catalog::get_u32(b.data() + catalog::kLevelsOffset);
        const std::uint64_t g_count =
            catalog::get_u64(b.data() + catalog::kGCountOffset);
        const std::size_t r0 = catalog::kHeaderBytes +
                               levels * catalog::kStatsEntryBytes +
                               g_count * catalog::kGEntryBytes;
        ASSERT_EQ(catalog::get_u64(b.data() + r0), 1u);
        std::fill(b.begin() + r0 + 8,
                  b.begin() + r0 + 8 + library3().domain().size(), 0);
      });
  EXPECT_NE(message.find("level 0 rep row is not the identity"),
            std::string::npos)
      << message;
}

TEST(CatalogCorruption, GCountThatWrapsTheIndexSizeIsRejected) {
  // 419244183493398901 * 44 = 2^64 + 28: a byte-size check of the G index
  // wraps around to 28 bytes and passes, and the reader then tries to
  // reserve ~4e17 entries. Counting in entries rejects the forged count.
  const std::string message =
      corrupt_message("g_count_wrap", [](std::vector<std::uint8_t>& b) {
        const std::uint64_t forged = 419244183493398901ull;
        for (std::size_t i = 0; i < 8; ++i) {
          b[catalog::kGCountOffset + i] =
              static_cast<std::uint8_t>(forged >> (8 * (7 - i)));
        }
      });
  EXPECT_NE(message.find("G index"), std::string::npos);
}

TEST(CatalogCorruption, NotACatalogFileIsRejectedCleanly) {
  const std::string path = temp_path("not_a_catalog");
  write_file(path, {0x7f, 'E', 'L', 'F', 2, 1, 1, 0, 0, 0});
  EXPECT_THROW((void)FmcfEnumerator::open_catalog(path, library3()),
               qsyn::CatalogError);
  std::remove(path.c_str());
}

// --- open_catalog mutation fuzzer -------------------------------------------

using Bytes = std::vector<std::uint8_t>;

void put_be(Bytes& bytes, std::size_t offset, std::size_t len,
            std::uint64_t value) {
  if (bytes.size() < offset + len) return;
  for (std::size_t i = 0; i < len; ++i) {
    bytes[offset + i] =
        static_cast<std::uint8_t>(value >> (8 * (len - 1 - i)));
  }
}

std::uint64_t get_be(const Bytes& bytes, std::size_t offset, std::size_t len) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < len; ++i) value = value << 8 | bytes[offset + i];
  return value;
}

/// One field of a catalog: `entry` is the byte size of the record a count
/// field counts (0 for fields that count nothing).
struct Field {
  std::size_t offset;
  std::size_t len;
  std::size_t entry;
};

/// Where things live in a well-formed catalog of row stride `stride`: the
/// header, stats, G-index and section-length fields, the [begin, end) byte
/// span of each rep section's rows, and where the first section starts.
struct CatalogLayout {
  std::vector<Field> fields;
  std::vector<std::pair<std::size_t, std::size_t>> row_spans;
  std::size_t frontiers = 0;
};

CatalogLayout layout_of(const Bytes& bytes, std::size_t stride) {
  namespace cat = catalog;
  CatalogLayout layout;
  for (std::size_t offset = cat::kVersionOffset;
       offset < cat::kDomainFingerprintOffset; offset += 4) {
    layout.fields.push_back({offset, 4, 0});
  }
  layout.fields.push_back({cat::kDomainFingerprintOffset, 8, 0});
  layout.fields.push_back({cat::kLibraryFingerprintOffset, 8, 0});
  layout.fields.push_back({cat::kGCountOffset, 8, cat::kGEntryBytes});
  const std::size_t levels = get_be(bytes, cat::kLevelsOffset, 4);
  std::size_t offset = cat::kHeaderBytes;
  for (std::size_t k = 0; k < levels; ++k) {
    layout.fields.push_back({offset, 4, 0});
    for (std::size_t f = 0; f < 5; ++f) {
      layout.fields.push_back({offset + 4 + 8 * f, 8, 0});
    }
    offset += cat::kStatsEntryBytes;
  }
  const std::size_t g_count = get_be(bytes, cat::kGCountOffset, 8);
  for (std::size_t e = 0; e < g_count; ++e) {
    for (std::size_t w = 0; w < 4; ++w) {
      layout.fields.push_back({offset + 8 * w, 8, 0});
    }
    layout.fields.push_back({offset + 32, 4, 0});
    layout.fields.push_back({offset + 36, 8, 0});
    offset += cat::kGEntryBytes;
  }
  layout.frontiers = offset;
  for (std::size_t k = 0; k <= levels; ++k) {
    layout.fields.push_back({offset, 8, stride});
    const std::size_t rows = get_be(bytes, offset, 8);
    offset += 8;
    layout.row_spans.emplace_back(offset, offset + rows * stride);
    offset += rows * stride;
  }
  EXPECT_EQ(offset, bytes.size());
  return layout;
}

/// A saved catalog, a donor catalog of the same library to splice fields
/// from, and the pristine catalog's answers: every G member (all levels)
/// with its find() result, and each g_set(k).
struct CatalogFuzzFixture {
  const gates::GateLibrary* library = nullptr;
  std::size_t stride = 0;
  std::vector<std::uint16_t> fixed_labels;  // fixed by every relabeling
  Bytes pristine;
  Bytes donor;
  CatalogLayout layout;
  std::vector<perm::Permutation> g_all;
  std::vector<std::optional<GEntry>> found;
  std::vector<std::vector<perm::Permutation>> g_sets;
};

CatalogFuzzFixture fuzz_fixture(const gates::GateLibrary& library,
                                unsigned levels, const std::string& name) {
  CatalogFuzzFixture fx;
  fx.library = &library;
  const std::string path = temp_path("fuzz_" + name);
  FmcfEnumerator fresh(library);
  fresh.run_to(levels);
  fresh.save_catalog(path);
  fx.pristine = read_file(path);
  fx.stride = fresh.reps(0).row_stride();
  const WireSymmetry& symmetry = fresh.symmetry();
  for (std::size_t l = 0; l < symmetry.width(); ++l) {
    bool fixed = true;
    for (std::size_t e = 0; e < symmetry.order(); ++e) {
      fixed &= symmetry.relabel(e)[l] == l;
    }
    if (fixed) fx.fixed_labels.push_back(static_cast<std::uint16_t>(l));
  }
  // The donor tracks no witnesses and stops a level short (unless that
  // would leave it empty), so its flags, counts and section lengths differ.
  ClosureConfig counting;
  counting.track_witnesses = false;
  FmcfEnumerator donor(library, counting);
  donor.run_to(levels > 1 ? levels - 1 : levels);
  donor.save_catalog(path);
  fx.donor = read_file(path);
  std::remove(path.c_str());

  fx.layout = layout_of(fx.pristine, fx.stride);
  for (unsigned k = 0; k <= fresh.levels_done(); ++k) {
    fx.g_sets.push_back(fresh.g_set(k));
    for (const perm::Permutation& g : fx.g_sets.back()) {
      fx.g_all.push_back(g);
      fx.found.push_back(fresh.find(g));
    }
  }
  return fx;
}

/// One to three stacked mutations of the pristine catalog: bit flips
/// anywhere, truncation, a header/stats/G-index/section-length field set to
/// an edge value or the donor's value, trailing garbage, or a scribble over
/// rep row bytes only.
Bytes mutate_catalog(Rng& rng, const CatalogFuzzFixture& fx) {
  Bytes bytes = fx.pristine;
  const std::uint64_t steps = 1 + rng.below(3);
  for (std::uint64_t step = 0; step < steps; ++step) {
    switch (rng.below(5)) {
      case 0: {
        const std::uint64_t flips = 1 + rng.below(8);
        for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
          bytes[rng.below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      }
      case 1:
        bytes.resize(rng.below(bytes.size() + 1));
        break;
      case 2: {
        const Field field =
            fx.layout.fields[rng.below(fx.layout.fields.size())];
        const std::uint64_t current =
            bytes.size() >= field.offset + field.len
                ? get_be(bytes, field.offset, field.len)
                : 0;
        // current + 2^64 / lowbit(entry): a count whose byte size equals the
        // real one modulo 2^64, the value overflow-prone size checks accept.
        const std::uint64_t lowbit = field.entry & (~field.entry + 1);
        const std::uint64_t wrap =
            field.len < 8 || lowbit <= 1
                ? current
                : current + (~std::uint64_t(0)) / lowbit + 1;
        const std::uint64_t values[] = {
            0,
            1,
            2,
            current - 1,
            current + 1,
            fx.donor.size() >= field.offset + field.len
                ? get_be(fx.donor, field.offset, field.len)
                : rng(),
            0xffffffffu,
            std::uint64_t(1) << 31,
            std::uint64_t(1) << 63,
            ~std::uint64_t(0),
            wrap,
            rng(),
        };
        put_be(bytes, field.offset, field.len,
               values[rng.below(sizeof(values) / sizeof(values[0]))]);
        break;
      }
      case 3: {
        const std::uint64_t extra = 1 + rng.below(2 * fx.stride);
        for (std::uint64_t i = 0; i < extra; ++i) {
          bytes.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
      default: {
        const auto& span =
            fx.layout.row_spans[rng.below(fx.layout.row_spans.size())];
        if (span.first == span.second || bytes.size() < span.second) break;
        // Every other scribble sends labels every relabeling fixes to other
        // such labels: the rows stay in the domain and keep their
        // stabilizers, hence their orbit sizes, so some of these mutants
        // pass the reader's rep-row checks.
        const std::size_t label_bytes =
            fx.stride / fx.library->domain().size();
        const bool random_bytes = rng.below(2) == 0;
        const std::uint64_t scribbles = 1 + rng.below(16);
        for (std::uint64_t i = 0; i < scribbles; ++i) {
          if (random_bytes) {
            bytes[span.first + rng.below(span.second - span.first)] =
                static_cast<std::uint8_t>(rng());
            continue;
          }
          const auto& fixed = fx.fixed_labels;
          const std::size_t row =
              span.first +
              rng.below((span.second - span.first) / fx.stride) * fx.stride;
          put_be(bytes, row + fixed[rng.below(fixed.size())] * label_bytes,
                 label_bytes, fixed[rng.below(fixed.size())]);
        }
        break;
      }
    }
  }
  return bytes;
}

struct CatalogFuzzTally {
  std::size_t rejected = 0;
  std::size_t opened = 0;
  std::size_t rows_only_opened = 0;  // only rep row bytes changed, opened
};

// The contract for one mutant. open_catalog throws CatalogError or IoError
// (any other exception escapes and fails the test), or the catalog opens.
// On an opened catalog, find() over the pristine G set, witness() of what it
// finds and g_set(k) answer or throw a qsyn::Error, and every reps(k) row
// is the file's own bytes at its section's place. The reader checks rep
// rows (labels, order, orbit counts against the stats), so a mutant that
// changes only rep row bytes opens or is rejected for its rep rows, never
// for anything else; one whose bytes before the first rep section are
// intact must answer find() and g_set() exactly as the pristine catalog
// does. Rep rows carry no checksum, so rows that pass the checks are held
// to in-bounds reads.
void check_catalog_mutant(const std::string& path, const Bytes& bytes,
                          const CatalogFuzzFixture& fx,
                          CatalogFuzzTally& tally) {
  write_file(path, bytes);
  const std::size_t prefix = fx.layout.frontiers;
  const bool intact_prefix =
      bytes.size() >= prefix &&
      std::equal(fx.pristine.begin(),
                 fx.pristine.begin() + static_cast<std::ptrdiff_t>(prefix),
                 bytes.begin());
  // A scribble can rewrite a byte with its own value: row-only mutants
  // must differ from the pristine file somewhere.
  bool rows_only = bytes.size() == fx.pristine.size() && bytes != fx.pristine;
  for (std::size_t i = 0; rows_only && i < bytes.size(); ++i) {
    if (bytes[i] == fx.pristine[i]) continue;
    rows_only = std::any_of(
        fx.layout.row_spans.begin(), fx.layout.row_spans.end(),
        [i](const auto& span) { return i >= span.first && i < span.second; });
  }

  std::optional<FmcfEnumerator> opened;
  try {
    opened.emplace(FmcfEnumerator::open_catalog(path, *fx.library));
  } catch (const qsyn::CatalogError& e) {
    EXPECT_TRUE(!rows_only || std::string(e.what()).find("rep row") !=
                                  std::string::npos)
        << "row-only mutant rejected: " << e.what();
    ++tally.rejected;
    return;
  } catch (const qsyn::IoError& e) {
    EXPECT_FALSE(rows_only) << "row-only mutant rejected: " << e.what();
    ++tally.rejected;
    return;
  }
  ++tally.opened;
  if (rows_only) ++tally.rows_only_opened;
  const FmcfEnumerator& e = *opened;

  for (std::size_t i = 0; i < fx.g_all.size(); ++i) {
    std::optional<GEntry> got;
    try {
      got = e.find(fx.g_all[i]);
    } catch (const qsyn::Error& error) {
      EXPECT_FALSE(intact_prefix) << "find threw: " << error.what();
    }
    if (intact_prefix) {
      ASSERT_EQ(got.has_value(), fx.found[i].has_value()) << "find " << i;
      if (got.has_value()) {
        EXPECT_EQ(got->cost, fx.found[i]->cost);
        EXPECT_EQ(got->frontier_index, fx.found[i]->frontier_index);
      }
    }
    // The back-walk starts from a frontier row the mutant may have
    // scribbled: it may fail, but only with a qsyn::Error.
    if (got.has_value()) {
      try {
        (void)e.witness(*got);
      } catch (const qsyn::Error&) {
        // e.g. no predecessor of a scribbled row in the frontier below.
      }
    }
  }
  for (unsigned k = 0; k <= e.levels_done(); ++k) {
    try {
      const std::vector<perm::Permutation> got = e.g_set(k);
      if (intact_prefix) {
        EXPECT_EQ(got, fx.g_sets[k]) << "G[" << k << "]";
      }
    } catch (const qsyn::Error& error) {
      EXPECT_FALSE(intact_prefix) << "g_set threw: " << error.what();
    }
  }

  // Walk the mutant's own layout: each rep level is exactly its section's
  // rows, in place, and the sections end at the end of the file.
  std::size_t offset = catalog::kHeaderBytes +
                       e.levels_done() * catalog::kStatsEntryBytes +
                       get_be(bytes, catalog::kGCountOffset, 8) *
                           catalog::kGEntryBytes;
  for (unsigned k = 0; k <= e.levels_done(); ++k) {
    const FlatPermStore& rows = e.reps(k);
    ASSERT_LE(offset + 8, bytes.size());
    ASSERT_EQ(rows.size(), get_be(bytes, offset, 8)) << "R[" << k << "]";
    offset += 8;
    ASSERT_LE(rows.size_bytes(), bytes.size() - offset);
    if (rows.size_bytes() > 0) {
      ASSERT_EQ(std::memcmp(rows.data(), bytes.data() + offset,
                            rows.size_bytes()),
                0)
          << "R[" << k << "]";
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      try {
        (void)rows.permutation(i);
      } catch (const qsyn::Error&) {
        // Scribbled labels need not form a permutation.
      }
    }
    offset += rows.size_bytes();
  }
  EXPECT_EQ(offset, bytes.size());
}

void fuzz_open_catalog(const CatalogFuzzFixture& fx, const std::string& name,
                       std::uint64_t seed, int iterations) {
  Rng rng(seed);
  const std::string path = temp_path("fuzz_mutant_" + name);
  CatalogFuzzTally tally;

  // The G count forged so its byte size wraps onto the real one.
  Bytes wrapped = fx.pristine;
  put_be(wrapped, catalog::kGCountOffset, 8,
         get_be(wrapped, catalog::kGCountOffset, 8) +
             (std::uint64_t(1) << 62));
  check_catalog_mutant(path, wrapped, fx, tally);
  EXPECT_EQ(tally.rejected, 1u) << "wrapped G count accepted";

  for (int it = 0; it < iterations; ++it) {
    SCOPED_TRACE(name + ", iteration " + std::to_string(it));
    check_catalog_mutant(path, mutate_catalog(rng, fx), fx, tally);
    if (::testing::Test::HasFatalFailure()) break;
  }
  // The loop reaches both sides of the contract, and row-only mutants that
  // pass the rep-row checks drive find()/witness() over scribbled reps.
  EXPECT_GT(tally.rejected, std::size_t(iterations) / 4);
  EXPECT_GT(tally.opened, 0u);
  EXPECT_GT(tally.rows_only_opened, 0u);
  std::remove(path.c_str());
}

TEST(CatalogFuzz, MutantsThrowOrAnswerAtThreeWires) {
  const CatalogFuzzFixture fx = fuzz_fixture(library3(), 4, "n3");
  fuzz_open_catalog(fx, "n3", 7101, 600);
}

TEST(CatalogFuzz, MutantsThrowOrAnswerAtFiveWires) {
  // 782 labels: two-byte rows and 256-bit G keys.
  const gates::GateLibrary lib5 = gates::GateLibrary::standard(5);
  const CatalogFuzzFixture fx = fuzz_fixture(lib5, 1, "n5");
  fuzz_open_catalog(fx, "n5", 7102, 400);
}

// --- CatalogServer ----------------------------------------------------------

std::vector<perm::Permutation> server_targets() {
  return {perm::Permutation::identity(8),
          peres_perm(),
          toffoli_perm(),
          g2_perm(),
          g3_perm(),
          g4_perm(),
          swap_bc_perm(),
          fredkin_perm(),  // cost > 5: a stored-depth miss
          // NOT-only target: core is the identity, prefix is one NOT.
          perm_from_truth(3, [](std::uint32_t bits) { return bits ^ 0b100u; })};
}

TEST(CatalogServer, SingleQueriesMatchTheExpressor) {
  const CatalogServer server = CatalogServer::open(catalog5_path(), library3());
  McExpressor expressor(library3(), 5);
  for (const perm::Permutation& target : server_targets()) {
    const auto expected = expressor.synthesize(target);
    const auto got = server.synthesize(target);
    ASSERT_EQ(got.has_value(), expected.has_value());
    if (!got.has_value()) continue;
    EXPECT_EQ(got->cost, expected->cost);
    EXPECT_EQ(got->circuit.sequence(), expected->circuit.sequence());
    EXPECT_EQ(got->not_prefix, expected->not_prefix);
  }
}

TEST(CatalogServer, LocateReportsPrefixAndCost) {
  const CatalogServer server = CatalogServer::open(catalog5_path(), library3());
  const auto identity = server.locate(perm::Permutation::identity(8));
  ASSERT_TRUE(identity.has_value());
  EXPECT_EQ(identity->cost, 0u);
  EXPECT_TRUE(identity->not_prefix.empty());

  const auto nots = server.locate(
      perm_from_truth(3, [](std::uint32_t bits) { return bits ^ 0b101u; }));
  ASSERT_TRUE(nots.has_value());
  EXPECT_EQ(nots->cost, 0u);
  EXPECT_EQ(nots->not_prefix.size(), 2u);

  const auto toffoli = server.locate(toffoli_perm());
  ASSERT_TRUE(toffoli.has_value());
  EXPECT_EQ(toffoli->cost, 5u);

  EXPECT_FALSE(server.locate(fredkin_perm()).has_value());
}

TEST(CatalogServer, BatchedQueriesMatchSingles) {
  const CatalogServer server = CatalogServer::open(catalog5_path(), library3());
  const std::vector<perm::Permutation> targets = server_targets();

  const auto synthesized = server.synthesize_batch(targets);
  ASSERT_EQ(synthesized.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto one = server.synthesize(targets[i]);
    ASSERT_EQ(synthesized[i].has_value(), one.has_value()) << i;
    if (one.has_value()) {
      EXPECT_EQ(synthesized[i]->circuit.sequence(), one->circuit.sequence());
    }
  }
}

TEST(CatalogServer, WitnessCacheCountsHits) {
  const CatalogServer server = CatalogServer::open(catalog5_path(), library3());
  (void)server.synthesize(peres_perm());
  const auto after_first = server.cache_stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.entries, 1u);
  (void)server.synthesize(peres_perm());
  const auto after_second = server.cache_stats();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.entries, 1u);
}

TEST(CatalogServer, ZeroCapacityDisablesTheCache) {
  CatalogServerOptions options;
  options.witness_cache_capacity = 0;
  const CatalogServer server =
      CatalogServer::open(catalog5_path(), library3(), options);
  (void)server.synthesize(peres_perm());
  (void)server.synthesize(peres_perm());
  const auto stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(CatalogServer, ConcurrentMixedQueriesAgree) {
  // Race coverage for the lock-free read path + shared witness cache: four
  // reader threads hammer single queries while the main thread runs batches.
  const CatalogServer server = CatalogServer::open(catalog5_path(), library3());
  const std::vector<perm::Permutation> targets = server_targets();

  std::vector<std::vector<unsigned>> seen_costs(4);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        for (const perm::Permutation& target : targets) {
          const auto result = server.synthesize(target);
          seen_costs[t].push_back(result.has_value() ? result->cost + 1 : 0);
        }
      }
    });
  }
  const auto batch = server.synthesize_batch(targets);
  for (std::thread& reader : readers) reader.join();

  for (std::size_t t = 1; t < 4; ++t) {
    EXPECT_EQ(seen_costs[t], seen_costs[0]);
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto single = server.synthesize(targets[i]);
    ASSERT_EQ(batch[i].has_value(), single.has_value());
    if (single.has_value()) {
      EXPECT_EQ(batch[i]->circuit.sequence(), single->circuit.sequence());
    }
  }
}

TEST(CatalogServer, CacheStatsSnapshotIsConsistentUnderTraffic) {
  // cache_stats() takes the cache lock exclusively while the counters tick
  // under the shared lock, so every snapshot obeys the accounting invariants
  // even mid-traffic: hits + misses never exceeds the lookups issued, never
  // decreases between snapshots, and entries never exceeds the misses that
  // created them. After quiescing, hits + misses equals lookups exactly.
  const CatalogServer server = CatalogServer::open(catalog5_path(), library3());
  // Cached-witness targets only (cost >= 1 hits the witness cache).
  const std::vector<perm::Permutation> targets = {
      peres_perm(), toffoli_perm(), g2_perm(), g3_perm(), g4_perm()};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 16;

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (const perm::Permutation& target : targets) {
          (void)server.synthesize(target);
        }
      }
    });
  }
  const std::size_t total = kThreads * kRounds * targets.size();
  CatalogServer::CacheStats last{};
  for (int i = 0; i < 200; ++i) {
    const auto stats = server.cache_stats();
    EXPECT_LE(stats.hits + stats.misses, total);
    EXPECT_GE(stats.hits, last.hits);
    EXPECT_GE(stats.misses, last.misses);
    EXPECT_LE(stats.entries, stats.misses);
    last = stats;
  }
  for (std::thread& worker : workers) worker.join();

  const auto final_stats = server.cache_stats();
  EXPECT_EQ(final_stats.hits + final_stats.misses, total);
  EXPECT_GE(final_stats.entries, 1u);
  EXPECT_LE(final_stats.entries, targets.size());
}

TEST(CatalogServer, ServesFreshClosuresToo) {
  // The server is storage-agnostic: a just-computed (writable) closure
  // serves identically to its catalog-backed reopen.
  FmcfEnumerator fresh(library3());
  fresh.run_to(4);
  const CatalogServer in_memory{std::move(fresh)};
  const CatalogServer mapped = CatalogServer::open(catalog5_path(), library3());
  const auto a = in_memory.synthesize(peres_perm());
  const auto b = mapped.synthesize(peres_perm());
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->circuit.sequence(), b->circuit.sequence());
}

}  // namespace
}  // namespace qsyn::synth
