// qsyn/sim/fused.h
//
// Fused cascade simulation, the one Hilbert-space evaluator outside the
// tests: a Cascade is partitioned into blocks of up to `fuse_block`
// consecutive gates, every block is folded into a single 2^n x 2^n unitary,
// and simulation applies blocks instead of gates. Folded blocks are memoized
// in a content-addressed UnitaryCache (keyed on the wire count plus the
// packed gate sequence), so a block appearing in many cascades — common in
// cross-check sweeps over enumerator output, whose cascades share prefixes,
// and in serving workloads that re-evaluate a fixed circuit catalog — folds
// exactly once per cache.
//
// The gate-at-a-time StateVector::apply_cascade stays as the *oracle*, named
// once more by sim::mv_model_matches_hilbert_reference (sim/cross_check.h).
// Every amplitude reachable from the paper's gate set is a dyadic complex
// rational, so folding performs exact binary arithmetic and the fused path
// reproduces the oracle bit for bit; the randomized differential harness in
// tests/test_sim_fused.cpp keeps that claim honest.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gates/cascade.h"
#include "la/matrix.h"

namespace qsyn::sim {

class StateVector;

/// Gates folded per block by default.
inline constexpr std::size_t kDefaultFuseBlock = 4;

/// Tuning knobs of the fused / batched simulation paths.
struct SimOptions {
  /// Gates folded per block; at least 1 (every engine rejects 0 when it is
  /// built).
  std::size_t fuse_block = kDefaultFuseBlock;

  /// Total parallelism of the BatchSimulator fan-out, including the calling
  /// thread. 0 = the QSYN_THREADS environment variable when set to a
  /// positive integer, else std::thread::hardware_concurrency().
  std::size_t threads = 0;

  /// The effective worker count (resolves threads == 0).
  [[nodiscard]] std::size_t resolved_threads() const;
};

/// Default UnitaryCache capacity (bytes of stored matrix entries). Bounds
/// the memory of long-lived caches — notably the process-wide engine behind
/// sim/cross_check.h, which would otherwise grow for the process lifetime
/// when sweeping many distinct cascades.
inline constexpr std::size_t kDefaultCacheBytes = std::size_t(64) << 20;

/// Content-addressed store of folded block unitaries, shared across cascades
/// and across threads. Lookups and inserts are mutex-guarded; the fold
/// itself runs outside the lock, so a racing duplicate fold is possible but
/// only one result is ever published.
class UnitaryCache {
 public:
  /// `max_bytes` softly caps the stored matrix entries: once reached, new
  /// folds are still computed and returned, just not memoized.
  explicit UnitaryCache(std::size_t max_bytes = kDefaultCacheBytes)
      : max_bytes_(max_bytes) {}

  /// The unitary of the `count`-gate block starting at `gates`, on `wires`
  /// wires, folding and memoizing it on first use. Equal blocks (same wire
  /// count, same gate sequence) return the *same* matrix object while it
  /// stays cached.
  [[nodiscard]] std::shared_ptr<const la::Matrix> fold(
      std::size_t wires, const gates::Gate* gates, std::size_t count);

  /// Number of distinct blocks stored.
  [[nodiscard]] std::size_t size() const;

  /// Bytes of matrix entries currently stored.
  [[nodiscard]] std::size_t bytes() const;

  /// One consistent view of the lookup counters and the store shape, read
  /// under a single lock acquisition — hits + misses always equals the
  /// number of completed fold() calls, which two independent hits()/misses()
  /// reads cannot guarantee while traffic is in flight.
  struct Stats {
    std::size_t hits = 0;
    /// Every fold() that performed the fold work, including duplicate folds
    /// lost to a race — a serving hit-rate derived from hits/misses reflects
    /// work actually done.
    std::size_t misses = 0;
    /// The subset of misses that lost a concurrent duplicate-fold race on
    /// the same block (the computed result was discarded for the published
    /// one).
    std::size_t duplicate_folds = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Lookup counters, for tests and bench reporting (each a single field of
  /// stats(); use stats() when reading more than one).
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;

  /// Test hook: invoked after a fold's matrix is computed, before the
  /// publish lock is re-taken — the window where a concurrent fold of the
  /// same block can win the race. Not synchronized: set it before any
  /// concurrent fold() traffic.
  void set_fold_hook(std::function<void()> hook) {
    fold_hook_ = std::move(hook);
  }

 private:
  struct Key {
    std::size_t wires = 0;
    std::vector<std::uint32_t> gates;  // Gate::packed(), in cascade order

    friend bool operator==(const Key& a, const Key& b) {
      return a.wires == b.wires && a.gates == b.gates;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const la::Matrix>, KeyHash> blocks_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t duplicate_folds_ = 0;
  std::function<void()> fold_hook_;
};

/// One cascade partitioned into folded blocks: block i covers gates
/// [i*fuse_block, min((i+1)*fuse_block, size)), and the cascade's action is
/// the blocks applied in cascade order. Holds shared references into the
/// cache it was folded through; the cache may be destroyed afterwards.
class FusedCascade {
 public:
  /// Partitions and folds `cascade` with block size `fuse_block` (>= 1)
  /// through `cache`.
  FusedCascade(const gates::Cascade& cascade, std::size_t fuse_block,
               UnitaryCache& cache);

  [[nodiscard]] std::size_t wires() const { return wires_; }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

  /// The folded unitary of block i.
  [[nodiscard]] const la::Matrix& block(std::size_t i) const;

  /// The shared cache entry of block i — pointer-equal across cascades for
  /// equal blocks folded through the same cache.
  [[nodiscard]] std::shared_ptr<const la::Matrix> block_matrix(
      std::size_t i) const;

  /// Applies all blocks in cascade order.
  void apply(StateVector& state) const;

  /// Output state of the basis input |bits>. The first block acts on a
  /// basis state, so its application is a column read instead of a full
  /// matrix-vector product — with whole-cascade fusion and a warm cache a
  /// sweep over all inputs costs O(4^n) total instead of O(gates * 4^n).
  [[nodiscard]] StateVector apply_to_basis(std::uint32_t bits) const;

  /// Batched apply_to_basis: output states of the basis inputs |bits[j]>.
  /// With two or more inputs and two or more blocks, the inputs assemble
  /// into a dense 2^n x batch column matrix (block 0 is a gather of unitary
  /// columns) and every further block applies as one matrix-matrix product
  /// through the simd gemm kernel. Otherwise a batch would only add a
  /// transpose round-trip, and each input runs through apply_to_basis.
  /// Amplitudes are dyadic, so each returned state is bit-identical to
  /// apply_to_basis(bits[j]) either way.
  [[nodiscard]] std::vector<StateVector> apply_to_basis_columns(
      const std::vector<std::uint32_t>& bits) const;

  /// The full 2^n x 2^n cascade unitary (product of the blocks; identity
  /// for the empty cascade).
  [[nodiscard]] la::Matrix unitary() const;

 private:
  std::size_t wires_;
  std::vector<std::shared_ptr<const la::Matrix>> blocks_;
};

}  // namespace qsyn::sim
