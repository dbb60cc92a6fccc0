// qsyn/common/io/mmap_file.h
//
// Memory-mapped files — the zero-copy substrate of the persistent synthesis
// catalog (synth/catalog.h) and the out-of-core closure's spill files
// (synth/sharded_perm_store.h).
//
// Two classes live here, and together they hold the whole spill-file policy
// (who writes, who deletes):
//
//  * MmapFile — maps one file read-only for its whole lifetime and hands out
//    a stable (data, size) byte view. Consumers that outlive the opener
//    (read-only FlatPermStore windows such as catalog frontiers, sealed
//    spill runs and drained spill frontiers) share ownership through the
//    shared_ptr returned by map(), so the mapping is
//    released exactly when the last view dies. Pages are faulted in lazily by
//    the kernel: opening a multi-megabyte catalog costs microseconds, and
//    only the pages a query actually touches ever become resident. A mapping
//    handed out by SpillWriter::seal() also removes its file when the last
//    view dies.
//
//  * SpillWriter — creates one file and appends to it with write(2) through
//    one bounded heap buffer (kSpillWriteBufferBytes). seal() flushes the
//    buffer and hands back a read-only MmapFile of the file; the page cache
//    is coherent, so the mapping sees every written byte without a flush.
//    A file whose layout is known up front is filled by positional writes
//    instead (write_at, pwrite(2)): several threads may each fill their own
//    byte range at once, each through a SpillRangeWriter of its own that
//    buffers at most kSpillWriteBufferBytes.
//
// Every spill file is a temporary of the process that wrote it. It is
// deleted by its owner — the writer if the write never completed (a throw
// mid-write leaks nothing), else the last view of the sealed mapping — and
// is never fsync'd: nothing reopens it, so after a crash it is an orphan
// with or without the sync.
//
// Error taxonomy (shared with the row stores): every failed filesystem
// operation (open, stat, write, map) throws qsyn::IoError carrying the
// operation, the path, and the OS detail; using a sealed SpillWriter is a
// caller bug and throws qsyn::LogicError. No partial state escapes a
// throwing constructor. On platforms without POSIX mmap MmapFile
// degrades to a private heap buffer — same API, no laziness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace qsyn::io {

/// Heap bytes one SpillWriter (or SpillRangeWriter) buffers before it
/// writes. This heap sits outside the spill budget
/// (synth::SpillOptions::budget_bytes).
inline constexpr std::size_t kSpillWriteBufferBytes = std::size_t(1) << 20;

/// An immutable byte view of one file, memory-mapped where possible.
class MmapFile {
 public:
  /// Maps `path` read-only. Throws qsyn::IoError when the file cannot be
  /// opened, is a directory, or cannot be mapped. An empty file yields a
  /// valid object with size() == 0 and data() == nullptr.
  [[nodiscard]] static std::shared_ptr<const MmapFile> map(
      const std::string& path);

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  friend class SpillWriter;

  MmapFile(const std::string& path, bool remove_on_destroy);

  std::string path_;
  std::vector<std::uint8_t> fallback_;  // non-POSIX read-into-heap path
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  // true when data_ came from mmap (needs munmap)
  bool remove_on_destroy_ = false;
};

/// An append-only file writer: the write side of the spill engine. Not
/// thread-safe; one writer owns the file until seal().
class SpillWriter {
 public:
  /// Creates (or truncates) the temporary `path`. Throws qsyn::IoError when
  /// the file cannot be created (e.g. the spill directory does not exist or
  /// is not writable).
  explicit SpillWriter(std::string path);

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Closes the file and, unless seal() handed it to a reader, removes it.
  ~SpillWriter();

  /// Appends `n` bytes. Throws qsyn::LogicError once sealed, qsyn::IoError
  /// when the write fails (e.g. disk full, file-size limit).
  void append(const std::uint8_t* bytes, std::size_t n);

  /// Writes `n` bytes at byte `offset` of the file, unbuffered and without
  /// moving the append position. Threads may call it at once for disjoint
  /// ranges (POSIX pwrite(2); Windows serializes the calls). A file is
  /// filled either by append() or by write_at(), not both. Throws as
  /// append() does.
  void write_at(std::uint64_t offset, const std::uint8_t* bytes, std::size_t n);

  /// Flushes the buffer, closes the file, and maps it read-only. The
  /// mapping owns the file from here on (the last view removes it). Throws
  /// qsyn::LogicError when called twice.
  [[nodiscard]] std::shared_ptr<const MmapFile> seal();

 private:
  void flush();
  void write_all(const std::uint8_t* bytes, std::size_t n);

  std::string path_;
  std::vector<std::uint8_t> buffer_;
  int fd_ = -1;
  bool sealed_ = false;
};

/// Fills the byte range [offset, offset + bytes) of a SpillWriter's file
/// front to back through its own buffer of min(bytes,
/// kSpillWriteBufferBytes) bytes, flushed with SpillWriter::write_at. One
/// per thread: writers of disjoint ranges of one file run concurrently.
class SpillRangeWriter {
 public:
  SpillRangeWriter(SpillWriter& file, std::uint64_t offset, std::size_t bytes);

  /// Appends `n` bytes to the range. Throws qsyn::LogicError past its end,
  /// qsyn::IoError when a write fails.
  void append(const std::uint8_t* bytes, std::size_t n);

  /// Writes out the buffer. Throws qsyn::LogicError unless the range is then
  /// exactly full.
  void finish();

 private:
  void flush();

  SpillWriter& file_;
  std::uint64_t next_;  // file offset of buffer_[0]
  std::size_t left_;    // range bytes not yet appended
  std::vector<std::uint8_t> buffer_;
};

}  // namespace qsyn::io
