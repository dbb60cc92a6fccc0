// qsyn/synth/storage_spec.h
//
// StorageSpec — the one public way to say where row storage lives.
//
// A StorageSpec is a small value describing one of the two RowStorage
// backends:
//
//   StorageSpec::in_memory()           — writable heap vector (the default
//                                        everywhere)
//   StorageSpec::mmap_read_only(path)  — the whole file, mapped read-only,
//                                        zero-copy
//
// Writable storage is always the heap vector; files are written with
// io::SpillWriter (common/io/mmap_file.h), whose seal() hands back the
// mapping to wrap, or with the catalog's stream writer.
//
// make_storage() materializes the backend; make_store(width) wraps it in a
// FlatPermStore directly. Specs are cheap to copy and compare, so configs
// and test fixtures can pass them around by value.
//
// The persistent catalog keeps carving its frontier windows out of one
// shared mapping internally — a path-shaped spec cannot express "bytes
// [a, b) of an already-open file", and that construction never leaves
// synth/catalog.cpp.
//
// Error taxonomy: a missing or unmappable file behind mmap_read_only throws
// qsyn::IoError; wrapping a backend whose byte count is not a whole number
// of rows throws qsyn::LogicError (from the FlatPermStore constructor).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "synth/flat_perm_store.h"
#include "synth/row_storage.h"

namespace qsyn::synth {

/// A value describing which RowStorage backend to build.
class StorageSpec {
 public:
  enum class Backend {
    kInMemory,      // writable VectorRowStorage
    kMmapReadOnly,  // read-only MmapRowStorage over a whole file
  };

  /// Writable heap-backed storage (the default).
  [[nodiscard]] static StorageSpec in_memory();

  /// The whole of `path`, mapped read-only.
  [[nodiscard]] static StorageSpec mmap_read_only(std::string path);

  [[nodiscard]] Backend backend() const { return backend_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Materializes the backend this spec describes.
  [[nodiscard]] std::shared_ptr<RowStorage> make_storage() const;

  /// Materializes the backend and wraps it in a FlatPermStore of `width`.
  [[nodiscard]] FlatPermStore make_store(std::size_t width) const;

  friend bool operator==(const StorageSpec& a, const StorageSpec& b) {
    return a.backend_ == b.backend_ && a.path_ == b.path_;
  }
  friend bool operator!=(const StorageSpec& a, const StorageSpec& b) {
    return !(a == b);
  }

 private:
  StorageSpec(Backend backend, std::string path)
      : backend_(backend), path_(std::move(path)) {}

  Backend backend_;
  std::string path_;
};

}  // namespace qsyn::synth
