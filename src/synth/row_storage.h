// qsyn/synth/row_storage.h
//
// Storage backends for the fixed-width row buffers of FlatPermStore (and,
// through it, ShardedPermStore): the seam that lets closure state live on the
// heap or inside a read-only memory-mapped file.
//
// A backend owns one contiguous byte buffer of whole rows. Two concrete
// backends exist:
//
//  * VectorRowStorage — the in-memory representation the synthesis stack has
//    always used (a std::vector<uint8_t>). The only writable backend.
//  * MmapRowStorage — a read-only window into a shared qsyn::io::MmapFile.
//    The persistent catalog (synth/catalog.h) serves its frontier row tables
//    through such windows without copying them off disk, and a spilled
//    ShardedPermStore hands back its drained frontier as one (written by
//    io::SpillWriter, removed with its last view). Rows store labels
//    big-endian, so the on-disk bytes ARE the in-memory representation on
//    every host.
//
// Construct backends through synth::StorageSpec (synth/storage_spec.h)
// unless you are inside the storage layer itself (the catalog carves window
// backends out of one shared mapping, which a path-shaped spec cannot
// express). Files are written only through io::SpillWriter (spill runs,
// drained frontiers) or the catalog's stream writer; no backend writes to a
// file.
//
// FlatPermStore caches the writable vector once per backend swap, so the hot
// set-algebra loops never pay a virtual dispatch per row; the interface is
// crossed only at backend boundaries.
//
// Error taxonomy: mutating a read-only backend (a FlatPermStore over an
// MmapRowStorage) throws qsyn::LogicError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/io/mmap_file.h"

namespace qsyn::synth {

/// Owner of one contiguous buffer of fixed-width rows.
class RowStorage {
 public:
  virtual ~RowStorage();

  /// First byte of the row buffer (nullptr allowed when empty).
  [[nodiscard]] virtual const std::uint8_t* data() const = 0;

  /// Buffer length in bytes (always a whole number of rows for buffers
  /// managed through FlatPermStore).
  [[nodiscard]] virtual std::size_t size_bytes() const = 0;

  /// Heap bytes held by this backend. Mmap'd backends report 0: their pages
  /// are file cache the kernel reclaims under pressure, not program heap.
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  /// Bytes this backend keeps on disk (0 for pure in-memory backends).
  [[nodiscard]] virtual std::size_t disk_bytes() const;

  /// The mutable byte vector behind the writable (vector) backend, or
  /// nullptr for a read-only one. FlatPermStore routes every mutation
  /// through it.
  [[nodiscard]] virtual std::vector<std::uint8_t>* mutable_bytes();
};

/// The writable in-memory backend (the historical representation).
class VectorRowStorage final : public RowStorage {
 public:
  VectorRowStorage() = default;
  explicit VectorRowStorage(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  [[nodiscard]] const std::uint8_t* data() const override {
    return bytes_.data();
  }
  [[nodiscard]] std::size_t size_bytes() const override {
    return bytes_.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return bytes_.capacity();
  }
  [[nodiscard]] std::vector<std::uint8_t>* mutable_bytes() override {
    return &bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// A read-only window into a memory-mapped file. Shares ownership of the
/// mapping, so the window stays valid however long the store outlives the
/// opener.
class MmapRowStorage final : public RowStorage {
 public:
  /// Window [offset, offset + bytes) of `file`; the range must lie inside
  /// the mapping (checked, throws qsyn::LogicError otherwise).
  MmapRowStorage(std::shared_ptr<const io::MmapFile> file, std::size_t offset,
                 std::size_t bytes);

  [[nodiscard]] const std::uint8_t* data() const override { return data_; }
  [[nodiscard]] std::size_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::size_t memory_bytes() const override { return 0; }
  [[nodiscard]] std::size_t disk_bytes() const override { return bytes_; }

 private:
  std::shared_ptr<const io::MmapFile> file_;
  const std::uint8_t* data_;
  std::size_t bytes_;
};

}  // namespace qsyn::synth
