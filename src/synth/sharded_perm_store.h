// qsyn/synth/sharded_perm_store.h
//
// A FlatPermStore partitioned into disjoint lexicographic key ranges.
//
// Routing is a splitter search: a store cut into S shards holds S-1 sorted,
// strictly increasing splitter rows, and shard_of() binary-searches them
// with memcmp on the store's row encoding (shard s owns the rows r with
// splitter[s-1] <= r < splitter[s]). memcmp order is label order for both
// label widths, so the shard index is monotone in the rows' lexicographic
// order: concatenating sorted shards in shard order yields a globally sorted
// store. A store starts unsplit — every row routes to shard 0 — until
// split() cuts it; the closure cuts its seen set at its own evenly spaced
// rows (split_evenly, via splitters_from), and each level's rep store takes
// the seen set's splitters. Because shards own
// disjoint ranges, the closure's set algebra decomposes into independent
// per-shard calls (subtract_shard_from, merge_into_shard, absorb_shard) —
// this is what the multi-threaded FMCF closure parallelizes over — and
// drain_sorted() concatenates the shards into one sorted store, one pooled
// copy per shard. There is no whole-store sort, subtract or merge.
//
// Spill-to-disk mode (SpillOptions): give the store a heap budget and a
// directory, and each shard seals its sorted in-memory rows into a run
// whenever a merge pushes the shard past its slice of the budget. A run is
// those rows byte for byte — no header, no compression — written to a
// temporary file by io::SpillWriter and kept as a read-only FlatPermStore
// window over its mapping; the file goes with the last view (a run adopted
// by absorb_shard is shared by both stores). A spilled store's drained file
// has the same format, so the set algebra over runs is the in-memory set
// algebra over mapped rows. A spilled shard is then the union of one
// writable in-memory "active" store and a list of immutable sorted runs —
// mutually disjoint by construction, because the closure's per-shard
// primitives below subtract incoming rows against the whole shard (active
// plus every run) before merging. Disjointness makes sizes exact, so the
// FMCF per-level stats are byte-identical with and without spilling; the
// monotone partition makes drain_sorted()'s per-shard k-way merges, each
// written at its shard's offset of one file, concatenate into a globally
// sorted result, so drained bytes are byte-identical too. With a zero
// budget (the default) nothing ever spills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "synth/flat_perm_store.h"

namespace qsyn {
class ThreadPool;
}

namespace qsyn::synth {

/// Spill policy for a ShardedPermStore.
struct SpillOptions {
  /// Heap budget in bytes for the whole store. It is sliced over the live
  /// shards — the one shard of an unsplit store gets all of it, the S shards
  /// of a split store get budget_bytes / S each — and a shard seals its
  /// in-memory rows to disk when a merge leaves them above its slice, so
  /// memory_bytes() stays within budget_bytes between operations. The
  /// closure also caps each round of candidate rows it feeds the store at
  /// max(budget_bytes, 1 MiB) (ClosureConfig::spill_budget_bytes).
  /// 0 = never spill. Not counted against it: each file being written holds
  /// an io::kSpillWriteBufferBytes heap buffer (1 MiB) until it is sealed —
  /// one per shard sealing concurrently — and while drain_sorted() writes a
  /// spilled store to disk, each of its running shard tasks holds one
  /// buffer of at most that size (one per pool worker).
  std::size_t budget_bytes = 0;

  /// Directory for run files. Must be non-empty when budget_bytes > 0 (the
  /// closure resolves it via resolve_spill_dir); an unusable directory
  /// surfaces as qsyn::IoError at the first seal.
  std::string dir;
};

/// `shard_count` sorted FlatPermStores over disjoint key ranges, each
/// optionally backed by sealed on-disk runs.
class ShardedPermStore {
 public:
  /// An unsplit store: `width` as in FlatPermStore, `shard_count` in
  /// [1, 65536]; every row routes to shard 0 until split().
  ShardedPermStore(std::size_t width, std::size_t shard_count);

  /// Same, with a spill policy.
  ShardedPermStore(std::size_t width, std::size_t shard_count,
                   SpillOptions spill);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// The shard_count - 1 rows at evenly spaced ranks of `sorted_rows`
  /// (sorted, duplicate-free, at least shard_count rows unless shard_count
  /// is 1): splitters that cut
  /// those rows, and rows drawn like them, into shards of near-equal size.
  [[nodiscard]] static FlatPermStore splitters_from(
      const FlatPermStore& sorted_rows, std::size_t shard_count);

  /// Cuts the store at `splitters` — shard_count() - 1 strictly increasing
  /// rows of this width — and moves every row (active and sealed; the store
  /// must be shard-sorted) to its new shard. The rows are sorted, so each
  /// shard receives one contiguous range: in-memory rows are range-copied,
  /// sealed runs are streamed through drain_sorted(), and the budget is
  /// re-sliced over the new shards, sealing whole slices as they load.
  void split(FlatPermStore splitters);

  /// Cuts the store at its own rows of evenly spaced rank
  /// (splitters_from(rows, shard_count())), so every shard ends up with the
  /// same number of rows give or take one, moving the rows as split() does.
  /// Needs at least shard_count() rows. The rows are drained through
  /// drain_sorted(pool), so a `pool` spreads that copy over its workers.
  void split_evenly(ThreadPool* pool = nullptr);

  /// The splitter rows (empty while unsplit).
  [[nodiscard]] const FlatPermStore& splitters() const { return splitters_; }

  /// Shards rows can route to: 1 while unsplit, else shard_count().
  [[nodiscard]] std::size_t live_shards() const {
    return splitters_.size() + 1;
  }

  /// Index of the shard owning `row_bytes` (in the FlatPermStore encoding
  /// for this width): the number of splitters <= the row, so monotone in
  /// row order. Always 0 on an unsplit store.
  [[nodiscard]] std::size_t shard_of(const std::uint8_t* row_bytes) const {
    const std::uint8_t* base = splitters_.data();
    const std::size_t stride = splitters_.row_stride();
    std::size_t lo = 0;
    std::size_t hi = splitters_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (std::memcmp(base + mid * stride, row_bytes, stride) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// The in-memory ("active") rows of shard `s`. On a spilled store this is
  /// only part of the shard — the sealed runs are not visible here; prefer
  /// the per-shard primitives below, which see the whole shard.
  [[nodiscard]] const FlatPermStore& shard(std::size_t s) const {
    return shards_[s];
  }

  /// Total rows across all shards, sealed runs included (exact: the pieces
  /// are disjoint).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Rows of shard `s`, sealed runs included.
  [[nodiscard]] std::size_t shard_size(std::size_t s) const;

  /// Sealed runs of shard `s`.
  [[nodiscard]] std::size_t shard_run_count(std::size_t s) const {
    return runs_[s].size();
  }

  /// True when any shard currently holds sealed runs.
  [[nodiscard]] bool spilled() const;

  /// Total sealed runs across all shards.
  [[nodiscard]] std::size_t run_count() const;

  /// Appends `p` as one row, as is, to its owning shard's active store: the
  /// caller keeps that shard sorted (the closure seeds its empty seen set
  /// with the identity this way). Never seals; bulk loads go through
  /// merge_into_shard.
  void push_back(const perm::Permutation& p);

  /// Removes from `rows` (sorted, writable) every row present in shard `s` —
  /// active store and every sealed run. The closure's membership filter.
  void subtract_shard_from(std::size_t s, FlatPermStore& rows) const;

  /// Merges `rows` (sorted, disjoint from shard `s` — i.e. already passed
  /// through subtract_shard_from) into shard `s`'s active store, then seals
  /// the active store to a new run if it exceeds the shard's budget slice.
  /// Takes `rows` by value: a moved-in chunk becomes the active store as is
  /// when the shard holds no in-memory rows.
  void merge_into_shard(std::size_t s, FlatPermStore rows);

  /// Merges shard `s` of `other` (same layout) — active rows and sealed
  /// runs — into shard `s` of this store. The shard contents must be
  /// disjoint (the closure guarantees this: fresh rows were subtracted
  /// against the seen set before accumulating). Runs are adopted by
  /// reference; `other` keeps serving them until cleared.
  void absorb_shard(std::size_t s, const ShardedPermStore& other);

  /// Destructive flatten — the one contract for both in-memory and spilled
  /// stores: returns the globally sorted rows (every shard's active rows and
  /// runs, which the closure keeps sorted and disjoint) and leaves this
  /// store empty.
  /// The backing of the result is an implementation detail and callers must
  /// treat it as read-only:
  ///   - at most one non-empty in-memory shard: its storage is moved out,
  ///     no copy;
  ///   - several in-memory shards: one writable store is sized (not
  ///     zero-filled) for every row, and each shard is copied to its
  ///     prefix-sum offset and released — one task per shard, run as a round
  ///     of `pool` when one is given, so the destination's pages are first
  ///     touched by the pool's workers rather than serially, and resident
  ///     memory stays near one store's worth of rows;
  ///   - spilled: shard sizes are exact, so each shard owns the byte range
  ///     at its prefix-sum offset of one spill file. One task per shard —
  ///     a round of `pool` when one is given — k-way merges the shard's
  ///     active rows and runs, writes them into its range with positional
  ///     writes through a buffer of its own (at most
  ///     io::kSpillWriteBufferBytes), and releases the shard. The result
  ///     is a read-only store viewing the sealed file mmap'd; the file lives
  ///     as long as the returned store. When a write fails the IoError
  ///     propagates, the partial file is removed, and the store's contents
  ///     are unspecified (shards already drained are empty).
  /// Row bytes and order are identical in every mode and with or without a
  /// pool. `pool` must not be running a round of its own (ThreadPool::run
  /// is not reentrant).
  [[nodiscard]] FlatPermStore drain_sorted(ThreadPool* pool = nullptr);

  /// Releases all memory and deletes this store's temporary run files (runs
  /// adopted elsewhere via absorb_shard survive until every owner drops
  /// them).
  void clear();

  /// Bytes of heap memory currently held (active stores only).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Bytes held in sealed run files on disk.
  [[nodiscard]] std::size_t disk_bytes() const;

 private:
  [[nodiscard]] bool same_layout(const ShardedPermStore& other) const;
  void load(const FlatPermStore& rows);  // sorted rows into empty shards
  void slice_budget();  // shard_budget_ = budget over the live shards
  void seal(std::size_t s, const FlatPermStore& rows);
  void maybe_seal(std::size_t s);

  std::size_t width_;
  FlatPermStore splitters_;  // live_shards() - 1 sorted rows
  std::vector<FlatPermStore> shards_;
  // Sealed runs per shard: read-only windows over temporary spill files.
  std::vector<std::vector<std::shared_ptr<const FlatPermStore>>> runs_;
  SpillOptions spill_;
  std::size_t shard_budget_ = 0;  // bytes per live shard; 0 = never seal
};

}  // namespace qsyn::synth
