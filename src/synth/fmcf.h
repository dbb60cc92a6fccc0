// qsyn/synth/fmcf.h
//
// The paper's Finding_Minimum_Cost_Circuits (FMCF) algorithm: a breadth-first
// closure of the quantum gate library L under the "reasonable product"
// constraint.
//
//   A[k] = circuits realizable with <= k gates        (as permutations of the
//   B[k] = A[k] - A[k-1]   (frontier: minimal cost k)  reduced pattern domain)
//   pre_G[k] = { Restrictedperm(b, S) : b in B[k], b(S) = S }
//   G[k] = pre_G[k] - G[k-1] - ... - G[1] - G[0]
//
// G[k] is the set of reversible (binary-in/binary-out) circuits whose minimal
// quantum cost is exactly k (Theorem 1). Table 2 of the paper tabulates
// |G[k]| for k = 0..7; with NOT gates, |S8[k]| = 2^n * |G[k]| by Theorem 2.
//
// The enumerator runs level by level (advance()) on wire-relabeling orbits.
// Relabeling the wires maps the library and its banned classes onto
// themselves (synth/wire_symmetry.h), so it maps every B[k] onto itself, and
// B[k] is a union of conjugation orbits. The closure keeps one canonical row
// per orbit, its memcmp-least conjugate, and never builds B[k] itself
// (Golubitsky & Maslov, IEEE Trans. Computers 61(9), 2012, keep only class
// representatives the same way):
//   1. Rep step: the reps R[k-1] of B[k-1] times every gate the banned sets
//      allow, each product canonicalized, sort_unique'd per shard and
//      subtracted against the seen set, which holds the reps of A[k-1] and
//      nothing else. What is left is R[k], drained memcmp-sorted.
//   2. Orbit count: each rep's orbit size, counted in the pool on levels
//      of 1024 reps or more, then prefix-summed. The sum is |B[k]|, and
//      |A[k]| is the sum of the frontier sizes, so seen_count() reads it
//      from the stats.
//   3. G keys: a relabeling permutes the binary labels, so binary
//      preservation holds for a whole orbit or for none of it, and pre_G[k]
//      is the set of distinct keys over the conjugates of the
//      binary-preserving reps; the pass tests every rep of R[k], since
//      every gate fixes label 0 and sorting sets no bound. The witness of a
//      key is the memcmp-least conjugate with that key: the lowest row of
//      the sorted B[k]. One pool task per worker (one task in all below 1024
//      reps) keys the conjugates of every T-th rep into a hash map that
//      keeps, per key, the least conjugate met so far as a (rep,
//      relabeling) pair. Rows with one key share their first 2^n labels,
//      so a collision compares the two rows lazily from label 2^n on. The
//      tasks' maps merge the same way, and only the distinct keys are
//      sorted.
// A row of B[k] is named by its index in *orbit order*: reps in memcmp
// order, and each rep's conjugates in WireSymmetry::orbit_elements order.
// The prefix sums map an index to (rep, conjugate) by binary search.
// GEntry::frontier_index, witness_for_row() and implementations() speak
// these indices; implementations() lists its rows in memcmp order. The
// back-walk's test b * d^-1 in B[j-1] looks the product's orbit hash up in
// a table of R[j-1]'s, built by the first walk into that level, and checks
// the reps with that hash for conjugacy (WireSymmetry::orbit_hash,
// is_conjugate): cheaper than canonicalizing it, which keeps many
// relabelings tied on near-identity rows. frontier(k) builds the sorted
// B[k] on demand, for tests and tools.
//
// The rep step fans out over a worker pool and runs its set algebra per
// shard of a lexicographically partitioned store (ShardedPermStore),
// byte-identical to the single-threaded sweep. Canonical rows cluster low in
// memcmp order, so the seen set is cut at its own evenly spaced rows (once
// it holds 16 rows per shard, and again whenever it has grown 4x while in
// RAM). Candidates are buffered per worker and shard, and each shard's
// candidates are radix-sorted straight out of those buffers. With a spill
// budget (ClosureConfig::spill_budget_bytes) the sharded stores seal their
// sorted rows to run files when RAM runs out and the set algebra continues
// over the mapped runs; the budget also bounds each round of candidates in
// bytes. Stats, G sets and witnesses stay identical to the all-in-RAM sweep.
// When the library exhausts its reachable group below the requested bound
// the closure saturates: saturated() turns true, and advance()/run_to()
// become no-ops instead of crashing on the empty frontier.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gates/cascade.h"
#include "gates/library.h"
#include "perm/permutation.h"
#include "synth/closure_config.h"
#include "synth/flat_perm_store.h"
#include "synth/sharded_perm_store.h"
#include "synth/wire_symmetry.h"

namespace qsyn {
class ThreadPool;
}

namespace qsyn::synth {

/// Per-level statistics, one entry per computed cost k >= 1.
struct FmcfLevelStats {
  unsigned cost = 0;          // k
  std::size_t frontier = 0;   // |B[k]|
  std::size_t g_new = 0;      // |G[k]|
  std::size_t pre_g = 0;      // |pre_G[k]| (before subtracting earlier G's)
  std::size_t seen = 0;       // |A[k]|
  double seconds = 0.0;       // wall time for this level
};

/// Handle to one reversible circuit discovered by the closure.
struct GEntry {
  unsigned cost = 0;            // minimal quantum cost
  // Orbit-order index in B[cost] of the memcmp-least row whose restriction
  // is this circuit (0 for cost 0).
  std::size_t frontier_index = 0;
};

/// Key identifying a member of G: the restricted permutation on the binary
/// labels, one byte per point (2^n points, so 256 bits cover up to 5 wires).
using GKey = std::array<std::uint64_t, 4>;

struct GKeyHash {
  std::size_t operator()(const GKey& key) const {
    // splitmix64-style mix of the four words.
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::uint64_t word : key) {
      std::uint64_t x = word + h;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      h = x ^ (x >> 31);
    }
    return static_cast<std::size_t>(h);
  }
};

/// Breadth-first FMCF closure over a gate library.
class FmcfEnumerator {
 public:
  /// The library must be built over a *reduced* domain whose first 2^n
  /// labels are the binary patterns. Supports up to 5 wires (G-set keys
  /// pack one byte per binary label into 256 bits; the 782-label 5-wire
  /// domain uses the stores' two-byte label rows).
  explicit FmcfEnumerator(const gates::GateLibrary& library,
                          ClosureConfig options = {});
  ~FmcfEnumerator();

  FmcfEnumerator(FmcfEnumerator&&) noexcept;
  FmcfEnumerator& operator=(FmcfEnumerator&&) noexcept;

  /// Computes the next level (k = levels_done()+1) and returns its stats.
  /// Once the closure is saturated() this is a no-op returning the last
  /// level's stats. Throws qsyn::LogicError on a read_only() (catalog-
  /// backed) enumerator: reopened catalogs serve, they never re-enumerate.
  const FmcfLevelStats& advance();

  /// Runs advance() until `max_cost` levels are done or the closure
  /// saturates, whichever comes first.
  void run_to(unsigned max_cost);

  /// True when the closure is exhausted: the last computed frontier is
  /// empty, so no deeper level can contain new circuits.
  [[nodiscard]] bool saturated() const {
    return !stats_.empty() && stats_.back().frontier == 0;
  }

  // --- persistent catalog ------------------------------------------------

  /// Serializes the computed closure to a versioned on-disk catalog (see
  /// synth/catalog.h for the format): header with magic/version/endianness
  /// tag and domain+library fingerprints, per-level stats, the sorted G-set
  /// index with witness metadata, and every level's canonical rows R[k].
  /// Throws qsyn::IoError when the file cannot be written.
  void save_catalog(const std::string& path) const;

  /// Reopens a catalog read-only: the G index is rebuilt eagerly (it is
  /// small), the rep row tables are memory-mapped zero-copy and checked
  /// (labels in the domain, rows strictly ascending, R[0] the identity),
  /// and each level's orbit prefix sums are rebuilt and checked against
  /// the stats, so no advance() work is ever redone. `library` must be the
  /// library the catalog was saved from (enforced via the stored
  /// fingerprints). Witness tracking and banned-set flags come from the
  /// file; `options` only contributes threads/shards. Throws
  /// qsyn::CatalogError on malformed or incompatible files (a version 1
  /// file must be regenerated) and qsyn::IoError on filesystem failures.
  [[nodiscard]] static FmcfEnumerator open_catalog(
      const std::string& path, const gates::GateLibrary& library,
      ClosureConfig options = {});

  /// True for catalog-backed enumerators: every query path (find, g_set,
  /// witness, implementations) works, but advance() throws.
  [[nodiscard]] bool read_only() const { return read_only_; }

  /// Resolved worker-thread count used by the level sweep.
  [[nodiscard]] std::size_t threads() const { return threads_; }

  [[nodiscard]] unsigned levels_done() const {
    return static_cast<unsigned>(stats_.size());
  }
  [[nodiscard]] const std::vector<FmcfLevelStats>& stats() const {
    return stats_;
  }

  /// Members of G[k] as permutations of the binary labels {1..2^n};
  /// G[0] = { identity }. Requires k <= levels_done().
  [[nodiscard]] std::vector<perm::Permutation> g_set(unsigned k) const;

  /// Looks up a reversible circuit (a permutation of {1..2^n}) among the
  /// levels computed so far.
  [[nodiscard]] std::optional<GEntry> find(
      const perm::Permutation& restricted) const;

  /// Reconstructs one minimal witness cascade for an entry by the paper's
  /// back-walk (find d with b*(d)^{-1} in B[k-1] and the product reasonable;
  /// membership means the product's orbit is one of R[k-1]'s). Each
  /// back-step scans the candidate gates in library order and
  /// takes the lowest valid one, so the reconstructed cascade is
  /// thread-count invariant. Safe to call concurrently with other witness
  /// reconstructions but not with advance(). Requires track_witnesses.
  [[nodiscard]] gates::Cascade witness(const GEntry& entry) const;

  /// The orbit-order indices of all rows b in B[k] whose restriction to S
  /// equals `restricted` — the paper's count of distinct "implementations"
  /// (2 for Peres, 4 for Toffoli) — listed in the memcmp order of the rows.
  /// Requires track_witnesses and k <= levels_done().
  [[nodiscard]] std::vector<std::size_t> implementations(
      const perm::Permutation& restricted, unsigned k) const;

  /// Witness cascade for the row of B[k] at orbit-order index `row`.
  [[nodiscard]] gates::Cascade witness_for_row(unsigned k,
                                               std::size_t row) const;

  /// Total number of distinct cascade-permutations reached (|A[k]|), read
  /// from the last level's stats.
  [[nodiscard]] std::size_t seen_count() const {
    return stats_.empty() ? 1 : stats_.back().seen;
  }

  /// R[k]: the canonical row of every orbit of B[k], memcmp-sorted.
  /// Without track_witnesses only the last level is kept; earlier ones read
  /// as empty. Requires k <= levels_done().
  [[nodiscard]] const FlatPermStore& reps(unsigned k) const;

  /// The sorted rows of B[k], built from R[k] on each call (serial; for
  /// tests and tools). Empty where reps(k) is. Requires k <= levels_done().
  [[nodiscard]] FlatPermStore frontier(unsigned k) const;

  /// The seen set: the canonical row of every orbit in A[k], one per orbit
  /// (empty on catalog-backed enumerators, which never advance()).
  [[nodiscard]] const ShardedPermStore& seen_store() const { return seen_; }

  /// Rows of each seen-set shard, sealed runs included: how evenly the
  /// splitters spread the closure's canonical rows.
  [[nodiscard]] std::vector<std::size_t> seen_shard_rows() const;

  /// The wire relabelings the closure runs its orbits over.
  [[nodiscard]] const WireSymmetry& symmetry() const { return symmetry_; }

  /// Approximate heap usage of the stored sets.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Bytes held in spill files (sealed seen-set runs and file-backed rep
  /// levels). 0 unless a spill budget is configured and was exceeded.
  [[nodiscard]] std::size_t disk_bytes() const;

  [[nodiscard]] const gates::GateLibrary& library() const { return *library_; }

 private:
  /// Tag selecting the catalog-reopen construction path: no level-0
  /// seeding happens (state comes from the file).
  struct CatalogTag {};
  FmcfEnumerator(const gates::GateLibrary& library, ClosureConfig options,
                 CatalogTag tag);

  /// One level's canonical rows and where their orbits sit in B[k].
  struct RepLevel {
    explicit RepLevel(FlatPermStore rows) : reps(std::move(rows)) {}
    FlatPermStore reps;  // R[k], memcmp-sorted
    // starts[i]: orbit-order index of rep i's first conjugate; the last
    // entry is |B[k]|.
    std::vector<std::size_t> starts;
    // The back-walk's membership index, built by its first lookup
    // (orbit_in), so closures and catalogs that never walk back never pay
    // for it: hashes[i] is rep i's orbit hash, and `slots` an open-addressing
    // table over them, rep index + 1 per used slot and 0 for an empty one,
    // a power of two at least twice the rep count.
    std::unique_ptr<std::once_flag> indexed =
        std::make_unique<std::once_flag>();
    mutable std::vector<std::uint64_t> hashes;
    mutable std::vector<std::size_t> slots;
  };
  /// Buffers of one orbit walk (visit_keys, orbit_row, count_orbits,
  /// frontier(), the back-walk), reused across rows so that a warm walk
  /// allocates nothing.
  struct OrbitWalk {
    explicit OrbitWalk(std::size_t width) : labels(width) {}
    std::vector<std::uint16_t> labels;    // a decoded row
    std::vector<std::uint32_t> elements;  // its orbit's elements
    WireSymmetry::OrbitScratch orbit;
  };
  /// Sets `level.starts` from its reps' orbit sizes: in a round of `pool`
  /// when one is given and the level is large enough, else inline, then
  /// one serial prefix sum.
  void count_orbits(RepLevel& level, ThreadPool* pool = nullptr) const;
  /// Registers the G keys of the newest level (cost k); returns |pre_G[k]|
  /// and appends the new keys' entries.
  std::size_t extract_g_keys(unsigned k);
  /// The row of B[k] at orbit-order index `index`, as 0-based labels.
  void orbit_row(unsigned k, std::size_t index, std::uint16_t* labels,
                 OrbitWalk& walk) const;
  /// When rep i of `level` is binary-preserving, decodes it into
  /// `walk.labels` and calls visit(key, j, e) for each of its conjugates in
  /// orbit order (the j-th, by element e).
  template <typename Visit>
  void visit_keys(const RepLevel& level, std::size_t i, OrbitWalk& walk,
                  Visit&& visit) const;
  /// True when the orbit of `labels` is one of `level`'s: some rep with
  /// its orbit hash is conjugate to it. `rep` and `moved` are scratch.
  [[nodiscard]] bool orbit_in(const RepLevel& level,
                              const std::uint16_t* labels,
                              std::vector<std::uint16_t>& rep,
                              std::vector<std::uint16_t>& moved) const;

  [[nodiscard]] bool row_is_binary_preserving(const std::uint8_t* row) const;
  [[nodiscard]] std::uint32_t row_label(const std::uint8_t* row,
                                        std::size_t s) const {
    return FlatPermStore::read_label(row, s, label_bytes_);
  }

  const gates::GateLibrary* library_;  // outlives the enumerator
  ClosureConfig options_;
  std::size_t width_;          // domain size (38 for 3 wires, 782 for 5)
  std::size_t binary_count_;   // 2^n
  std::size_t label_bytes_;    // bytes per label in store rows (1 or 2)
  std::size_t stride_;         // bytes per row = width_ * label_bytes_
  std::size_t threads_;        // resolved worker count (>= 1)
  std::size_t shards_;         // resolved shard count (>= 1)
  std::size_t spill_budget_;   // resolved bytes per sharded store; 0 = never
  std::string spill_dir_;      // resolved spill directory
  std::unique_ptr<ThreadPool> pool_;  // created by the first advance()

  WireSymmetry symmetry_;
  ShardedPermStore seen_;                // canonical rows of A[k], shard-sorted
  std::size_t seen_reps_at_cut_ = 0;     // seen_ rows at its last cut
  std::vector<RepLevel> levels_;  // R[0..k]; emptied if !track_witnesses
  std::vector<FmcfLevelStats> stats_;

  std::vector<GKey> g_seen_keys_;                          // sorted
  std::unordered_map<GKey, GEntry, GKeyHash> g_index_;     // key -> entry

  bool read_only_ = false;  // catalog-backed: queries only, advance() throws
};

}  // namespace qsyn::synth
