// Persistent catalog save/reopen for FmcfEnumerator (format in
// synth/catalog.h). Writing streams the closure out through big-endian
// helpers; reopening validates every field before trusting it, wraps the
// mapped rep sections in read-only FlatPermStore windows, checks their rows
// and rebuilds each level's orbit prefix sums, so a reopened enumerator
// answers find()/witness() without re-running a single advance() level.
#include "synth/catalog.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/error.h"
#include "common/io/mmap_file.h"
#include "synth/fmcf.h"

namespace qsyn::synth {

namespace {

[[noreturn]] void corrupt(const std::string& path, const std::string& detail) {
  throw qsyn::CatalogError("invalid catalog '" + path + "': " + detail);
}

double bits_to_double(std::uint64_t bits) {
  double out;
  static_assert(sizeof(out) == sizeof(bits));
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

std::uint64_t double_to_bits(double value) {
  std::uint64_t out;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

}  // namespace

void FmcfEnumerator::save_catalog(const std::string& path) const {
  namespace cat = catalog;
  const unsigned levels = levels_done();

  std::vector<std::uint8_t> head;
  head.reserve(cat::kHeaderBytes + stats_.size() * cat::kStatsEntryBytes +
               g_seen_keys_.size() * cat::kGEntryBytes);
  head.insert(head.end(), cat::kMagic, cat::kMagic + sizeof(cat::kMagic));
  cat::put_u32(head, cat::kVersion);
  cat::put_u32(head, cat::kEndianTag);
  cat::put_u32(head, static_cast<std::uint32_t>(library_->domain().wires()));
  cat::put_u32(head, static_cast<std::uint32_t>(width_));
  cat::put_u32(head, static_cast<std::uint32_t>(binary_count_));
  cat::put_u32(head, static_cast<std::uint32_t>(label_bytes_));
  cat::put_u32(head, static_cast<std::uint32_t>(library_->size()));
  cat::put_u32(head, levels);
  std::uint32_t flags = 0;
  if (options_.track_witnesses) flags |= cat::kFlagTrackWitnesses;
  if (options_.use_banned_sets) flags |= cat::kFlagUseBannedSets;
  cat::put_u32(head, flags);
  cat::put_u64(head, library_->domain().fingerprint());
  cat::put_u64(head, library_->fingerprint());
  cat::put_u64(head, g_seen_keys_.size());
  QSYN_CHECK(head.size() == cat::kHeaderBytes,
             "catalog header layout drifted from kHeaderBytes");

  for (const FmcfLevelStats& s : stats_) {
    cat::put_u32(head, s.cost);
    cat::put_u64(head, s.frontier);
    cat::put_u64(head, s.g_new);
    cat::put_u64(head, s.pre_g);
    cat::put_u64(head, s.seen);
    cat::put_u64(head, double_to_bits(s.seconds));
  }

  // g_seen_keys_ is kept sorted by the closure, so the serialized index is
  // binary-searchable and its order is deterministic.
  for (const GKey& key : g_seen_keys_) {
    const auto it = g_index_.find(key);
    QSYN_CHECK(it != g_index_.end(), "G key missing its index entry");
    for (const std::uint64_t word : key) cat::put_u64(head, word);
    cat::put_u32(head, it->second.cost);
    cat::put_u64(head, it->second.frontier_index);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw qsyn::IoError("cannot open catalog for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));

  // Rep sections, k = 0..levels. Store rows are big-endian already, so the
  // row bytes go out verbatim (and come back in as an mmap window). Without
  // witness tracking the pre-latest levels were released and serialize as
  // zero-row sections.
  std::vector<std::uint8_t> prefix;
  for (unsigned k = 0; k <= levels; ++k) {
    const FlatPermStore& reps = levels_[k].reps;
    prefix.clear();
    cat::put_u64(prefix, reps.size());
    out.write(reinterpret_cast<const char*>(prefix.data()),
              static_cast<std::streamsize>(prefix.size()));
    out.write(reinterpret_cast<const char*>(reps.data()),
              static_cast<std::streamsize>(reps.size_bytes()));
  }
  out.flush();
  if (!out) {
    throw qsyn::IoError("failed writing catalog: " + path);
  }
}

FmcfEnumerator FmcfEnumerator::open_catalog(const std::string& path,
                                            const gates::GateLibrary& library,
                                            ClosureConfig options) {
  namespace cat = catalog;
  const std::shared_ptr<const io::MmapFile> file = io::MmapFile::map(path);
  const std::uint8_t* base = file->data();
  const std::size_t total = file->size();

  const auto need = [&](std::size_t offset, std::size_t bytes,
                        const char* what) {
    if (offset > total || bytes > total - offset) {
      corrupt(path, std::string("truncated (") + what + ")");
    }
  };

  need(0, cat::kHeaderBytes, "header");
  if (std::memcmp(base + cat::kMagicOffset, cat::kMagic,
                  sizeof(cat::kMagic)) != 0) {
    corrupt(path, "bad magic, not a qsyn catalog");
  }
  const std::uint32_t version = cat::get_u32(base + cat::kVersionOffset);
  if (version != cat::kVersion) {
    // Catalogs are derived data: version 1 (full frontiers) and any other
    // layout are rebuilt, never converted.
    corrupt(path, "unsupported format version " + std::to_string(version) +
                      " (expected " + std::to_string(cat::kVersion) +
                      "); regenerate the catalog with save_catalog");
  }
  if (cat::get_u32(base + cat::kEndianOffset) != cat::kEndianTag) {
    corrupt(path, "endianness tag mismatch");
  }

  const std::uint32_t wires = cat::get_u32(base + cat::kWiresOffset);
  const std::uint32_t width = cat::get_u32(base + cat::kWidthOffset);
  const std::uint32_t binary_count =
      cat::get_u32(base + cat::kBinaryCountOffset);
  const std::uint32_t label_bytes = cat::get_u32(base + cat::kLabelBytesOffset);
  const std::uint32_t gate_count = cat::get_u32(base + cat::kGateCountOffset);
  const std::uint32_t levels = cat::get_u32(base + cat::kLevelsOffset);
  const std::uint32_t flags = cat::get_u32(base + cat::kFlagsOffset);
  if (wires != library.domain().wires() || width != library.domain().size() ||
      binary_count != library.domain().binary_count() ||
      gate_count != library.size()) {
    corrupt(path, "built for a different domain/library shape (" +
                      std::to_string(wires) + " wires, width " +
                      std::to_string(width) + ", " +
                      std::to_string(gate_count) + " gates)");
  }
  if (cat::get_u64(base + cat::kDomainFingerprintOffset) !=
      library.domain().fingerprint()) {
    corrupt(path, "domain fingerprint mismatch");
  }
  if (cat::get_u64(base + cat::kLibraryFingerprintOffset) !=
      library.fingerprint()) {
    corrupt(path, "library fingerprint mismatch");
  }

  options.track_witnesses = (flags & cat::kFlagTrackWitnesses) != 0;
  options.use_banned_sets = (flags & cat::kFlagUseBannedSets) != 0;
  FmcfEnumerator out(library, options, CatalogTag{});
  if (label_bytes != out.label_bytes_) {
    corrupt(path, "label width disagrees with the domain size");
  }

  // Level stats.
  std::size_t offset = cat::kHeaderBytes;
  need(offset, std::size_t{levels} * cat::kStatsEntryBytes, "level stats");
  out.stats_.reserve(levels);
  for (std::uint32_t k = 1; k <= levels; ++k) {
    FmcfLevelStats s;
    s.cost = cat::get_u32(base + offset);
    if (s.cost != k) corrupt(path, "level stats out of order");
    s.frontier = cat::get_u64(base + offset + 4);
    s.g_new = cat::get_u64(base + offset + 12);
    s.pre_g = cat::get_u64(base + offset + 20);
    s.seen = cat::get_u64(base + offset + 28);
    s.seconds = bits_to_double(cat::get_u64(base + offset + 36));
    out.stats_.push_back(s);
    offset += cat::kStatsEntryBytes;
  }

  // G index: sorted keys, eagerly rebuilt (a few MB at most, and the hash
  // map makes find() O(1) — mapping it lazily would buy nothing).
  const std::uint64_t g_count = cat::get_u64(base + cat::kGCountOffset);
  if (g_count == 0) corrupt(path, "empty G index (identity entry missing)");
  // Compare in entry units: a forged count must not wrap the byte size of
  // the index around 2^64.
  if (g_count > (total - offset) / cat::kGEntryBytes) {
    corrupt(path, "truncated (G index)");
  }
  out.g_seen_keys_.reserve(static_cast<std::size_t>(g_count));
  out.g_index_.reserve(static_cast<std::size_t>(g_count));
  for (std::uint64_t i = 0; i < g_count; ++i) {
    GKey key{};
    for (std::size_t w = 0; w < key.size(); ++w) {
      key[w] = cat::get_u64(base + offset + 8 * w);
    }
    const std::uint32_t cost = cat::get_u32(base + offset + 32);
    const std::uint64_t row = cat::get_u64(base + offset + 36);
    if (!out.g_seen_keys_.empty() && !(out.g_seen_keys_.back() < key)) {
      corrupt(path, "G index keys not strictly ascending");
    }
    if (cost > levels) corrupt(path, "G entry cost beyond the saved levels");
    out.g_seen_keys_.push_back(key);
    out.g_index_.emplace(key,
                         GEntry{cost, static_cast<std::size_t>(row)});
    offset += cat::kGEntryBytes;
  }

  // Rep sections, mapped zero-copy: each FlatPermStore is a read-only
  // window into the shared mapping.
  out.levels_.reserve(std::size_t{levels} + 1);
  for (std::uint32_t k = 0; k <= levels; ++k) {
    need(offset, 8, "frontier rep section header");
    const std::uint64_t rows = cat::get_u64(base + offset);
    offset += 8;
    if (rows > total / out.stride_) {
      corrupt(path, "frontier rep row count overflows the file");
    }
    const std::size_t bytes = static_cast<std::size_t>(rows) * out.stride_;
    need(offset, bytes, "frontier rep rows");
    out.levels_.emplace_back(FlatPermStore(out.width_, file, offset, bytes));
    offset += bytes;
  }
  if (offset != total) corrupt(path, "trailing bytes after the last section");

  // Every rep label must name a domain label before any rep indexes the
  // symmetry or gate tables, and rows must be strictly ascending (the G-key
  // pass and implementations() stop at the first rep past the binary
  // labels).
  for (const RepLevel& level : out.levels_) {
    const std::uint8_t* bytes = level.reps.data();
    const std::size_t size = level.reps.size_bytes();
    bool in_domain = true;
    for (std::size_t l = 0; l < size / out.label_bytes_; ++l) {
      in_domain &= FlatPermStore::read_label(bytes, l, out.label_bytes_) <
                   out.width_;
    }
    if (!in_domain) corrupt(path, "rep row holds a label outside the domain");
    for (std::size_t at = out.stride_; at < size; at += out.stride_) {
      if (std::memcmp(bytes + at - out.stride_, bytes + at, out.stride_) >= 0) {
        corrupt(path, "rep rows not strictly ascending");
      }
    }
  }
  // Orbit prefix sums, checked against the stats. Without witness tracking
  // only the last level keeps its reps.
  for (std::uint32_t k = 0; k <= levels; ++k) {
    RepLevel& level = out.levels_[k];
    const bool kept = out.options_.track_witnesses || k == levels;
    if (!kept) {
      if (!level.reps.empty()) corrupt(path, "rep rows in a released level");
      continue;
    }
    if (k == 0) {
      // The back-walk ends at R[0]; anything but the identity there would
      // only surface as failed walks at query time.
      FlatPermStore identity(out.width_);
      identity.push_back(perm::Permutation::identity(out.width_));
      if (level.reps.size() != 1 ||
          std::memcmp(level.reps.row(0), identity.row(0), out.stride_) != 0) {
        corrupt(path, "level 0 rep row is not the identity");
      }
    }
    out.count_orbits(level);
    const std::size_t expected = k == 0 ? 1 : out.stats_[k - 1].frontier;
    if (level.starts.back() != expected) {
      corrupt(path, "rep row orbits disagree with the level stats");
    }
  }
  if (out.options_.track_witnesses) {
    for (const auto& [key, entry] : out.g_index_) {
      if (entry.frontier_index >= out.levels_[entry.cost].starts.back()) {
        corrupt(path, "witness row index outside its frontier");
      }
    }
  }
  return out;
}

}  // namespace qsyn::synth
