// qsyn/synth/flat_perm_store.h
//
// Flat, cache-friendly storage for millions of small permutations.
//
// The FMCF breadth-first closure (Section 3 of the paper) manipulates sets of
// permutations on the reduced pattern domain (38 labels for 3 wires). At the
// paper's bound cb = 7 there are ~690k reachable permutations and the
// frontier grows ~4.5x per level, so the enumerator stores each permutation
// as one fixed-width row of 0-based images inside one large buffer, and
// implements set algebra (sort / unique / difference / merge) over that
// buffer. This keeps the per-element overhead at zero and makes the sweeps
// sequential.
//
// Label width scales with the domain: rows hold one byte per label for
// domains up to 256 labels (every domain through 4 wires) and two
// *big-endian* bytes per label beyond that (the 5-wire reduced domain has
// 782 labels). Big-endian packing keeps the raw-byte memcmp order of rows
// identical to the label-lexicographic order, so the entire set algebra —
// and the ShardedPermStore partition built on top — is label-width agnostic,
// and the raw bytes are a host-endianness-independent serialization format.
//
// A store holds its rows one of two ways. A writable store owns them in a
// heap simd::RowBytes buffer (common/simd/kernels.h), so the set-algebra
// hot loops touch the buffer directly.
// A read-only store views a window [offset, offset + bytes) of a shared,
// memory-mapped io::MmapFile (a catalog's rep section, a run a spilled
// ShardedPermStore sealed, or the file it drains into): it
// serves every read operation zero-copy and throws qsyn::LogicError from
// every mutation; copy it to get a writable store. Stores never write files
// themselves — io::SpillWriter does (common/io/mmap_file.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/io/mmap_file.h"
#include "common/simd/kernels.h"
#include "perm/permutation.h"

namespace qsyn::synth {

/// A dynamically sized array of fixed-width rows, each row one permutation
/// image table (0-based). Rows compare lexicographically by label.
class FlatPermStore {
 public:
  /// `width` = permutation degree (labels per row), at most 65536. An empty
  /// writable store.
  explicit FlatPermStore(std::size_t width);

  /// Same, but rows hold `width` labels drawn from [0, label_range) rather
  /// than a permutation of [0, width): the label-byte width follows
  /// `label_range`. The topology-search backend stores its visited states —
  /// images of the 2^n binary labels under a cascade prefix, which range
  /// over the *whole* reduced domain — in such a store.
  FlatPermStore(std::size_t width, std::size_t label_range);

  /// A read-only view of the rows in bytes [offset, offset + bytes) of
  /// `file` (shared: several stores may view disjoint windows of one mapped
  /// catalog, and the mapping lives as long as any of them). The window must
  /// lie inside the file and hold a whole number of rows, else
  /// qsyn::LogicError.
  FlatPermStore(std::size_t width, std::shared_ptr<const io::MmapFile> file,
                std::size_t offset, std::size_t bytes);

  /// Copies deep-copy the rows into a fresh writable store (a copy of a
  /// read-only store is therefore writable). A moved-from store is empty
  /// and writable.
  FlatPermStore(const FlatPermStore& other);
  FlatPermStore& operator=(const FlatPermStore& other);
  FlatPermStore(FlatPermStore&& other) noexcept;
  FlatPermStore& operator=(FlatPermStore&& other) noexcept;
  ~FlatPermStore();

  [[nodiscard]] std::size_t width() const { return width_; }

  /// True when the store views a mapped window (catalog rep sections,
  /// sealed spill runs, drained spilled stores). Every mutating member below
  /// throws qsyn::LogicError on such a store.
  [[nodiscard]] bool read_only() const { return file_ != nullptr; }

  /// Bytes per label: 1 while labels fit a byte, else 2 (big-endian).
  [[nodiscard]] std::size_t label_bytes() const { return label_bytes_; }

  /// Bytes per row = width() * label_bytes().
  [[nodiscard]] std::size_t row_stride() const { return stride_; }

  [[nodiscard]] std::size_t size() const { return view_bytes_ / stride_; }
  [[nodiscard]] bool empty() const { return view_bytes_ == 0; }

  /// The contiguous row bytes (the store's serialization: rows in order,
  /// labels big-endian). Valid until the next mutation.
  [[nodiscard]] const std::uint8_t* data() const { return view_data_; }
  [[nodiscard]] std::size_t size_bytes() const { return view_bytes_; }

  /// Pointer to row `i` (row_stride() bytes).
  [[nodiscard]] const std::uint8_t* row(std::size_t i) const;

  /// Label `s` of row `i`, decoded.
  [[nodiscard]] std::uint32_t label(std::size_t i, std::size_t s) const {
    return read_label(row(i), s, label_bytes_);
  }

  /// Decodes label `s` from a raw row in this store's encoding.
  [[nodiscard]] static std::uint32_t read_label(const std::uint8_t* row_bytes,
                                                std::size_t s,
                                                std::size_t label_bytes) {
    if (label_bytes == 1) return row_bytes[s];
    return static_cast<std::uint32_t>(row_bytes[2 * s]) << 8 |
           row_bytes[2 * s + 1];
  }

  /// Encodes label `s` of a raw row in this store's encoding.
  static void write_label(std::uint8_t* row_bytes, std::size_t s,
                          std::size_t label_bytes, std::uint32_t value) {
    if (label_bytes == 1) {
      row_bytes[s] = static_cast<std::uint8_t>(value);
    } else {
      row_bytes[2 * s] = static_cast<std::uint8_t>(value >> 8);
      row_bytes[2 * s + 1] = static_cast<std::uint8_t>(value);
    }
  }

  /// Appends a row (must be row_stride() bytes in this store's encoding).
  void push_back(const std::uint8_t* row_bytes);

  /// Appends a Permutation (degree must equal width()).
  void push_back(const perm::Permutation& p);

  /// Row i as a Permutation.
  [[nodiscard]] perm::Permutation permutation(std::size_t i) const;

  /// Sorts rows lexicographically and removes duplicates.
  void sort_unique();

  /// Requires both stores sorted: removes from *this* every row present in
  /// `other` (set difference, in place).
  void subtract_sorted(const FlatPermStore& other);

  /// Requires both stores sorted: merges `other` into *this*, keeping the
  /// result sorted. Duplicate rows across the two stores are kept once
  /// (inputs are assumed disjoint when that matters; see subtract_sorted).
  void merge_sorted(const FlatPermStore& other);

  /// Binary search in a sorted store.
  [[nodiscard]] bool contains_sorted(const std::uint8_t* row_bytes) const;

  /// Encodes `p` as a row in this store's format (degree must equal
  /// width()).
  [[nodiscard]] std::vector<std::uint8_t> encode_row(
      const perm::Permutation& p) const;

  /// Replaces the rows wholesale with `bytes` (a whole number of rows in
  /// this store's encoding). The bulk-commit primitive the closure's sorted
  /// candidate chunks and ShardedPermStore's load and drain use.
  void assign_rows(simd::RowBytes bytes);

  /// Removes all rows but keeps the allocation (hot-loop buffer reuse).
  /// On a read-only store this degrades to clear().
  void clear_keep_capacity();

  /// Releases all memory (and a read-only store's view of its file),
  /// leaving an empty writable store.
  void clear();

  /// Bytes of heap memory currently held (0 for mmap-backed stores: their
  /// pages are kernel file cache, not program heap).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Bytes of the mapped window (0 for writable in-memory stores).
  [[nodiscard]] std::size_t disk_bytes() const;

  void reserve_rows(std::size_t rows);

 private:
  void sync_view();
  void ensure_writable() const;
  void commit_bytes(simd::RowBytes bytes);

  std::size_t width_;
  std::size_t label_bytes_;
  std::size_t stride_;
  simd::RowBytes bytes_;                      // rows of a writable store
  std::shared_ptr<const io::MmapFile> file_;  // mapping of a read-only one
  const std::uint8_t* view_data_ = nullptr;   // cached (data, size) view
  std::size_t view_bytes_ = 0;
};

}  // namespace qsyn::synth
