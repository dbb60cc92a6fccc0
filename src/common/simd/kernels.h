// qsyn/common/simd/kernels.h
//
// Data-plane kernels shared by the synthesis stores and the simulation
// engine — the two measured hot loops the rest of qsyn funnels into. One
// implementation per job; there is no runtime dispatch and no switch:
//
//  * Fixed-width row set algebra. FlatPermStore (and through it
//    ShardedPermStore and the SealedRun streaming merges) stores
//    permutations as fixed-width big-endian label rows whose raw-byte
//    memcmp order equals label order. sort_unique_rows is an LSD radix sort
//    over an 8-byte big-endian key window (positioned past the rows' common
//    prefix, with full-row tie-breaking), so the sweep cost scales with row
//    bytes moved instead of comparator calls: 18.0 vs 71.3 ms for an
//    index-indirect std::sort at width 38 (Release, 4-CPU x86-64 host).
//    Subtract and merge are std::memcmp two-pointer sweeps: glibc's memcmp
//    is already vectorized, and a hand-written AVX2 row compare measured no
//    faster (9.24 vs 9.73 ms at width 38, 0.899 vs 0.865 ms at width 1564).
//    Every kernel produces the canonical sorted-unique byte sequence, which
//    tests/test_kernels.cpp checks against a std::set model.
//
//  * Batched complex GEMM. The fused simulation path applies each folded
//    block unitary to a dense 2^n x batch column matrix as one hand-blocked
//    matrix-matrix product (sim/fused.h apply_to_basis_columns) instead of
//    one basis column at a time. BatchSimulator always takes this route for
//    groups of jobs sharing a multi-block cascade.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qsyn::simd {

// --- sorted-row set algebra -------------------------------------------------
//
// All functions below treat (rows, count, stride) as `count` contiguous
// fixed-width rows and produce canonical results: output rows are sorted
// ascending in memcmp order and duplicate-free (given sorted inputs for the
// binary operations), appended to `out` (cleared first).

/// Sorts `count` rows and drops duplicates (LSD radix sort).
void sort_unique_rows(const std::uint8_t* rows, std::size_t count,
                      std::size_t stride, std::vector<std::uint8_t>& out);

/// Set difference a \ b over sorted, duplicate-free row ranges.
void subtract_sorted_rows(const std::uint8_t* a, std::size_t a_count,
                          const std::uint8_t* b, std::size_t b_count,
                          std::size_t stride, std::vector<std::uint8_t>& out);

/// Sorted union a ∪ b over sorted, duplicate-free row ranges (rows present
/// in both are kept once).
void merge_sorted_rows(const std::uint8_t* a, std::size_t a_count,
                       const std::uint8_t* b, std::size_t b_count,
                       std::size_t stride, std::vector<std::uint8_t>& out);

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
