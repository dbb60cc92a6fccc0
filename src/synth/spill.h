// qsyn/synth/spill.h
//
// Sealed spill runs — the on-disk unit of the out-of-core closure frontier.
//
// When a ShardedPermStore's heap budget trips, a shard seals its sorted
// in-memory rows into one run file and releases the heap. A run is a sorted,
// duplicate-free row set in the FlatPermStore byte encoding, with one
// storage-level twist: the rows of a run share a common leading byte prefix
// (a run is sorted, and a shard owns one contiguous row range between two
// splitters; closure rows also share the labels every gate fixes). The run
// stores that prefix once and each row as its suffix, so every shared
// leading byte is saved once per row.
//
// Because rows are fixed-width with big-endian labels, memcmp order equals
// label order, so the streaming set algebra over runs (subtract, k-way
// merge in ShardedPermStore::drain_sorted) compares raw bytes — prefix
// first, suffix second — and never decodes a label.
//
// File layout (all integers big-endian, like synth/catalog.h):
//
//   [ 0] magic "QSYNRUN\0"
//   [ 8] u32 version          (kRunVersion)
//   [12] u32 width            (labels per row)
//   [16] u32 label_bytes      (1 or 2; derived from width, stored for
//                              integrity checking)
//   [20] u32 prefix_bytes     (P, shared leading bytes; P <= row stride)
//   [24] u64 rows
//   [32] prefix bytes [P], then rows x (stride - P) row suffixes
//
// The file must end exactly after the last suffix, and a run holds at least
// one row (rows == 1 exactly when P is the whole stride). Error taxonomy: a
// missing/unreadable file throws qsyn::IoError (from io::MmapFile); any
// malformed or mismatched content — bad magic, unsupported version, shape
// mismatch, truncation, trailing bytes, a row count the prefix contradicts —
// throws qsyn::CatalogError with a distinguishing message, mirroring the
// persistent catalog's hardening.
//
// Runs are written with io::SpillWriter (buffered write(2), no writable
// mapping) and read back through a read-only io::MmapFile. Durability follows
// ownership: a temporary run (keep_file = false, every run the spill engine
// seals) is never fsync'd and is removed with the last view of its mapping,
// or by the writer if the write fails; a kept run is fsync'd before write()
// returns and stays on disk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/io/mmap_file.h"
#include "synth/flat_perm_store.h"

namespace qsyn::synth {

namespace spill {
inline constexpr std::uint8_t kRunMagic[8] = {'Q', 'S', 'Y', 'N',
                                              'R', 'U', 'N', '\0'};
inline constexpr std::uint32_t kRunVersion = 1;
inline constexpr std::size_t kRunHeaderBytes = 32;
}  // namespace spill

/// One immutable, mmap'd, prefix-compressed sorted run on disk.
class SealedRun {
 public:
  /// Writes `rows` (sorted, duplicate-free, non-empty) prefix-compressed to
  /// `path` through an io::SpillWriter, then maps it read-only. With
  /// `keep_file` false the file is a temporary, removed when the last owner
  /// of the run dies (the spill engine's policy); with it true the file is
  /// fsync'd and outlives the run. Throws qsyn::IoError when the file
  /// cannot be created or written (e.g. missing spill dir, disk full) —
  /// and then leaves no file behind.
  [[nodiscard]] static std::shared_ptr<const SealedRun> write(
      const std::string& path, const FlatPermStore& rows,
      bool keep_file = false);

  /// Opens and validates an existing run file of the given row width.
  /// Throws qsyn::IoError when unreadable, qsyn::CatalogError when
  /// malformed.
  [[nodiscard]] static std::shared_ptr<const SealedRun> open(
      const std::string& path, std::size_t width);

  SealedRun(const SealedRun&) = delete;
  SealedRun& operator=(const SealedRun&) = delete;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t row_stride() const { return stride_; }
  [[nodiscard]] std::size_t prefix_bytes() const { return prefix_bytes_; }
  [[nodiscard]] std::size_t disk_bytes() const { return file_->size(); }
  [[nodiscard]] const std::string& path() const { return file_->path(); }

  /// memcmp-order comparison of a full row (stride bytes) against run row
  /// `i` — prefix bytes first, suffix second, no label decode, no copy.
  [[nodiscard]] int compare(const std::uint8_t* row_bytes,
                            std::size_t i) const {
    const int c = prefix_bytes_ == 0
                      ? 0
                      : std::memcmp(row_bytes, prefix_, prefix_bytes_);
    if (c != 0) return c;
    return suffix_stride_ == 0
               ? 0
               : std::memcmp(row_bytes + prefix_bytes_,
                             suffix_base_ + i * suffix_stride_,
                             suffix_stride_);
  }

  /// Reconstructs run row `i` into `out` (stride bytes).
  void materialize(std::size_t i, std::uint8_t* out) const {
    std::memcpy(out, prefix_, prefix_bytes_);
    std::memcpy(out + prefix_bytes_, suffix_base_ + i * suffix_stride_,
                suffix_stride_);
  }

  /// Streaming set difference: removes from `store` (sorted, writable)
  /// every row present in this run.
  void subtract_from(FlatPermStore& store) const;

 private:
  // Validates `file` as a run of `width` labels (throws CatalogError).
  SealedRun(std::shared_ptr<const io::MmapFile> file, std::size_t width);

  std::shared_ptr<const io::MmapFile> file_;
  const std::uint8_t* prefix_ = nullptr;
  const std::uint8_t* suffix_base_ = nullptr;
  std::size_t width_ = 0;
  std::size_t stride_ = 0;
  std::size_t prefix_bytes_ = 0;
  std::size_t suffix_stride_ = 0;
  std::size_t rows_ = 0;
};

}  // namespace qsyn::synth
