// qsyn/common/simd/kernels.h
//
// Data-plane kernels shared by the synthesis stores and the simulation
// engine — the two measured hot loops the rest of qsyn funnels into. One
// implementation per job; there is no runtime dispatch and no switch:
//
//  * Fixed-width row set algebra. FlatPermStore (and through it
//    ShardedPermStore, whose sealed spill runs are mapped FlatPermStore
//    windows) stores permutations as fixed-width big-endian label rows
//    whose raw-byte memcmp order equals label order. sort_unique_rows is an
//    LSD radix sort over an 8-byte big-endian key window (positioned past
//    the rows' common prefix, with full-row tie-breaking), so the sweep cost
//    scales with row bytes moved instead of comparator calls: 18.0 vs
//    71.3 ms for an index-indirect std::sort at width 38 (Release, 4-CPU
//    x86-64 host). Its (key, row pointer) pairs may point into several
//    buffers at once.
//    Subtract and merge are std::memcmp two-pointer sweeps: glibc's memcmp
//    is already vectorized, and a hand-written AVX2 row compare measured no
//    faster (9.24 vs 9.73 ms at width 38, 0.899 vs 0.865 ms at width 1564).
//    Every kernel produces the canonical sorted-unique byte sequence, which
//    tests/test_kernels.cpp checks against a std::set model, into a
//    RowBytes buffer: FlatPermStore's storage, which grows without
//    zero-filling and appends with one memcpy in every build type.
//
//  * Batched complex GEMM. The fused simulation path applies each folded
//    block unitary to a dense 2^n x batch column matrix as one hand-blocked
//    matrix-matrix product (sim/fused.h apply_to_basis_columns) instead of
//    one basis column at a time, whenever two or more inputs meet a
//    multi-block cascade.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace qsyn::simd {

// --- row buffers ------------------------------------------------------------

/// A growable byte buffer of fixed-width rows: the kernels' output type and
/// FlatPermStore's heap storage. Unlike std::vector<std::uint8_t>, growth
/// never initializes bytes, so a buffer sized up front (RowBytes(n)) is
/// first touched by whichever threads write it — ShardedPermStore's pooled
/// drain — instead of being zero-filled serially by the caller; appends are
/// one memcpy.
class RowBytes {
 public:
  RowBytes() = default;

  /// `size` bytes whose values are unspecified until written.
  explicit RowBytes(std::size_t size);

  /// A copy of the `size` bytes at `bytes`.
  RowBytes(const std::uint8_t* bytes, std::size_t size);

  /// Move-only; a moved-from buffer is empty.
  RowBytes(RowBytes&& other) noexcept;
  RowBytes& operator=(RowBytes&& other) noexcept;

  [[nodiscard]] std::uint8_t* data() { return data_.get(); }
  [[nodiscard]] const std::uint8_t* data() const { return data_.get(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Appends the `size` bytes at `bytes` (which must not point into this
  /// buffer), growing the allocation geometrically.
  void append(const std::uint8_t* bytes, std::size_t size);

  /// Grows the allocation to at least `capacity` bytes.
  void reserve(std::size_t capacity);

  /// Empties the buffer but keeps the allocation.
  void clear() { size_ = 0; }

 private:
  std::unique_ptr<std::uint8_t[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

// --- sorted-row set algebra -------------------------------------------------
//
// All functions below treat (rows, count, stride) as `count` contiguous
// fixed-width rows and produce canonical results: output rows are sorted
// ascending in memcmp order and duplicate-free (given sorted inputs for the
// binary operations), appended to `out` (cleared first).

/// `count` contiguous rows starting at `rows`.
struct RowRange {
  const std::uint8_t* rows;
  std::size_t count;
};

/// Sorts `count` rows and drops duplicates (LSD radix sort).
void sort_unique_rows(const std::uint8_t* rows, std::size_t count,
                      std::size_t stride, RowBytes& out);

/// Sorts the rows of all `range_count` ranges together and drops
/// duplicates: the result equals sort_unique_rows over the ranges'
/// concatenation, but the radix pass reads each row where it lies, so the
/// ranges are never copied into one buffer first. The closure sorts a
/// shard's candidates straight out of every worker's buffer this way.
void sort_unique_rows(const RowRange* ranges, std::size_t range_count,
                      std::size_t stride, RowBytes& out);

/// Set difference a \ b over sorted, duplicate-free row ranges. Long runs
/// of b rows between two a rows are skipped by galloping search, so a
/// small a against a large b costs about |a| log |b| comparisons.
void subtract_sorted_rows(const std::uint8_t* a, std::size_t a_count,
                          const std::uint8_t* b, std::size_t b_count,
                          std::size_t stride, RowBytes& out);

/// Sorted union a ∪ b over sorted, duplicate-free row ranges (rows present
/// in both are kept once).
void merge_sorted_rows(const std::uint8_t* a, std::size_t a_count,
                       const std::uint8_t* b, std::size_t b_count,
                       std::size_t stride, RowBytes& out);

// --- batched complex GEMM ---------------------------------------------------

using Complex = std::complex<double>;

/// c (m x n, row-major) = a (m x k, row-major) * b (k x n, row-major).
/// Hand-blocked kernel: k-major accumulation with zero-entry skipping (gate
/// block unitaries are sparse), contiguous inner rows so the compiler
/// vectorizes the fma chain. All qsyn gate amplitudes are dyadic rationals,
/// so any accumulation order produces bit-identical results.
void gemm(const Complex* a, const Complex* b, Complex* c, std::size_t m,
          std::size_t k, std::size_t n);

}  // namespace qsyn::simd
