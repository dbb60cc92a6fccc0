#include "synth/sharded_perm_store.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/error.h"
#include "common/io/mmap_file.h"
#include "common/thread_pool.h"
#include "synth/closure_config.h"

namespace qsyn::synth {

namespace {

// Spill files are per-process temporaries: pid plus a process-wide counter
// keeps concurrent closures (and concurrent shards within one closure) from
// colliding without any coordination.
std::string next_spill_path(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
#ifdef _WIN32
  const long pid = static_cast<long>(_getpid());
#else
  const long pid = static_cast<long>(::getpid());
#endif
  return dir + "/qsyn-spill-" + std::to_string(pid) + "-" +
         std::to_string(id) + ".run";
}

}  // namespace

ShardedPermStore::ShardedPermStore(std::size_t width, std::size_t shard_count)
    : ShardedPermStore(width, shard_count, SpillOptions{}) {}

ShardedPermStore::ShardedPermStore(std::size_t width, std::size_t shard_count,
                                   SpillOptions spill)
    : width_(width), splitters_(width), spill_(std::move(spill)) {
  QSYN_CHECK(shard_count >= 1 && shard_count <= 65536,
             "shard count must be in [1, 65536]");
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) shards_.emplace_back(width);
  runs_.resize(shard_count);
  if (spill_.budget_bytes > 0 && spill_.dir.empty()) {
    spill_.dir = resolve_spill_dir(spill_.dir);
  }
  slice_budget();
}

void ShardedPermStore::slice_budget() {
  if (spill_.budget_bytes == 0) return;  // never seal
  shard_budget_ = std::max<std::size_t>(1, spill_.budget_bytes / live_shards());
}

FlatPermStore ShardedPermStore::splitters_from(const FlatPermStore& sorted_rows,
                                               std::size_t shard_count) {
  QSYN_CHECK(shard_count == 1 ||
                 (shard_count > 1 && sorted_rows.size() >= shard_count),
             "splitters need at least one row per shard");
  FlatPermStore splitters(sorted_rows.width());
  splitters.reserve_rows(shard_count - 1);
  for (std::size_t s = 1; s < shard_count; ++s) {
    splitters.push_back(sorted_rows.row(s * sorted_rows.size() / shard_count));
  }
  return splitters;
}

namespace {

// Index of the first row in sorted `rows`, at or after `lo`, that is not
// less than `key`.
std::size_t lower_bound_row(const FlatPermStore& rows, std::size_t lo,
                            const std::uint8_t* key) {
  std::size_t hi = rows.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (std::memcmp(rows.row(mid), key, rows.row_stride()) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void ShardedPermStore::split(FlatPermStore splitters) {
  QSYN_CHECK(splitters.width() == width_ &&
                 splitters.size() + 1 == shards_.size(),
             "split needs shard_count - 1 splitter rows of the store's width");
  for (std::size_t i = 1; i < splitters.size(); ++i) {
    QSYN_CHECK(std::memcmp(splitters.row(i - 1), splitters.row(i),
                           splitters.row_stride()) < 0,
               "splitters must be strictly increasing");
  }
  const FlatPermStore rows = drain_sorted();
  splitters_ = std::move(splitters);
  load(rows);
}

void ShardedPermStore::split_evenly(ThreadPool* pool) {
  QSYN_CHECK(size() >= shard_count(), "split_evenly needs a row per shard");
  const FlatPermStore rows = drain_sorted(pool);
  splitters_ = splitters_from(rows, shard_count());
  load(rows);
}

void ShardedPermStore::load(const FlatPermStore& rows) {
  slice_budget();

  // Sorted rows under a monotone router: each shard is one contiguous range,
  // loaded in budget-slice pieces so the heap never holds more than one
  // slice of it. Full pieces seal straight to runs; the last one stays
  // active.
  const std::size_t stride = rows.row_stride();
  const std::size_t piece_rows =
      shard_budget_ == 0 ? rows.size()
                         : std::max<std::size_t>(1, shard_budget_ / stride);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t end =
        s + 1 < shards_.size() ? lower_bound_row(rows, begin, splitters_.row(s))
                               : rows.size();
    for (std::size_t i = begin; i < end; i += piece_rows) {
      const std::size_t n = std::min(piece_rows, end - i);
      FlatPermStore piece(width_);
      piece.assign_rows(simd::RowBytes(rows.row(i), n * stride));
      if (i + n < end) {
        seal(s, piece);
      } else {
        shards_[s] = std::move(piece);
        maybe_seal(s);
      }
    }
    begin = end;
  }
}

std::size_t ShardedPermStore::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) total += shard_size(s);
  return total;
}

std::size_t ShardedPermStore::shard_size(std::size_t s) const {
  std::size_t total = shards_[s].size();
  for (const auto& run : runs_[s]) total += run->size();
  return total;
}

bool ShardedPermStore::spilled() const {
  for (const auto& shard_runs : runs_) {
    if (!shard_runs.empty()) return true;
  }
  return false;
}

std::size_t ShardedPermStore::run_count() const {
  std::size_t total = 0;
  for (const auto& shard_runs : runs_) total += shard_runs.size();
  return total;
}

void ShardedPermStore::push_back(const perm::Permutation& p) {
  QSYN_CHECK(p.degree() == width_, "permutation degree mismatch");
  const std::vector<std::uint8_t> row = shards_[0].encode_row(p);
  shards_[shard_of(row.data())].push_back(row.data());
}

bool ShardedPermStore::same_layout(const ShardedPermStore& other) const {
  return width_ == other.width_ && shard_count() == other.shard_count() &&
         splitters_.size() == other.splitters_.size() &&
         (splitters_.empty() ||
          std::memcmp(splitters_.data(), other.splitters_.data(),
                      splitters_.size_bytes()) == 0);
}

void ShardedPermStore::subtract_shard_from(std::size_t s,
                                           FlatPermStore& rows) const {
  rows.subtract_sorted(shards_[s]);
  for (const auto& run : runs_[s]) {
    if (rows.empty()) break;
    rows.subtract_sorted(*run);
  }
}

void ShardedPermStore::merge_into_shard(std::size_t s, FlatPermStore rows) {
  if (shards_[s].empty() && !rows.read_only()) {
    QSYN_CHECK(rows.width() == width_, "width mismatch");
    shards_[s] = std::move(rows);
  } else {
    shards_[s].merge_sorted(rows);
  }
  maybe_seal(s);
}

void ShardedPermStore::absorb_shard(std::size_t s,
                                    const ShardedPermStore& other) {
  QSYN_CHECK(same_layout(other), "sharded store layout mismatch");
  shards_[s].merge_sorted(other.shards_[s]);
  for (const auto& run : other.runs_[s]) runs_[s].push_back(run);
  maybe_seal(s);
}

void ShardedPermStore::seal(std::size_t s, const FlatPermStore& rows) {
  io::SpillWriter out(next_spill_path(spill_.dir));
  out.append(rows.data(), rows.size_bytes());
  const std::shared_ptr<const io::MmapFile> file = out.seal();
  runs_[s].push_back(
      std::make_shared<const FlatPermStore>(width_, file, 0, file->size()));
}

void ShardedPermStore::maybe_seal(std::size_t s) {
  if (shard_budget_ == 0 || shards_[s].empty()) return;
  if (shards_[s].memory_bytes() <= shard_budget_) return;
  seal(s, shards_[s]);
  shards_[s].clear();
}

namespace {

// K-way merge over one shard: the active store plus its sealed runs, all
// sorted and mutually disjoint. Candidate rounds are bounded by the spill
// budget, so a shard that took many rounds holds one run per round it sealed
// in (dozens at n = 5, k = 4): the cursors sit in a binary min-heap on their
// head rows, O(log runs) row compares per row emitted.
template <typename Emit>
void merge_shard_rows(
    const FlatPermStore& active,
    const std::vector<std::shared_ptr<const FlatPermStore>>& runs,
    std::size_t stride, Emit&& emit) {
  struct Cursor {
    const std::uint8_t* head;  // next row
    const std::uint8_t* end;   // one past the last row
  };
  std::vector<Cursor> heap;
  heap.reserve(runs.size() + 1);
  const auto add = [&heap](const FlatPermStore& rows) {
    if (!rows.empty()) {
      heap.push_back(Cursor{rows.data(), rows.data() + rows.size_bytes()});
    }
  };
  add(active);
  for (const auto& run : runs) add(*run);

  const auto later = [stride](const Cursor& a, const Cursor& b) {
    return std::memcmp(a.head, b.head, stride) > 0;
  };
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    emit(c.head);
    c.head += stride;
    if (c.head == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

// Runs fn(s, worker) for every shard s: as one round of `pool` when there
// is one, else inline.
void for_each_shard(ThreadPool* pool, std::size_t shards,
                    const ThreadPool::Task& fn) {
  if (pool != nullptr) {
    pool->run(shards, fn);
  } else {
    for (std::size_t s = 0; s < shards; ++s) fn(s, 0);
  }
}

}  // namespace

FlatPermStore ShardedPermStore::drain_sorted(ThreadPool* pool) {
  if (!spilled()) {
    const auto filled = [](const FlatPermStore& s) { return !s.empty(); };
    if (std::count_if(shards_.begin(), shards_.end(), filled) <= 1) {
      const auto lone = std::find_if(shards_.begin(), shards_.end(), filled);
      FlatPermStore& shard = lone != shards_.end() ? *lone : shards_[0];
      FlatPermStore out = std::move(shard);
      shard.clear();
      return out;
    }
    // Each shard lands at its prefix-sum offset. The destination is sized
    // but not zero-filled, so its pages are first touched by the copies —
    // spread over the pool's workers when there is a pool.
    std::vector<std::size_t> offsets(shards_.size() + 1, 0);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      offsets[s + 1] = offsets[s] + shards_[s].size_bytes();
    }
    simd::RowBytes bytes(offsets.back());
    const auto copy_shard = [&](std::size_t s, std::size_t) {
      if (!shards_[s].empty()) {
        std::memcpy(bytes.data() + offsets[s], shards_[s].data(),
                    shards_[s].size_bytes());
      }
      shards_[s].clear();
    };
    for_each_shard(pool, shards_.size(), copy_shard);
    FlatPermStore out(width_);
    out.assign_rows(std::move(bytes));
    return out;
  }

  // Spilled: shard sizes are exact (a shard's pieces are disjoint), so
  // every shard's rows land at its prefix-sum offset of one temporary spill
  // file. One task per shard k-way merges its active rows and runs and
  // writes them there through its own buffer, then releases them; the file
  // comes back mmap'd read-only, so the drained rows never sit on the heap,
  // and it goes with the last view of the returned store.
  const std::size_t stride = shards_[0].row_stride();
  std::vector<std::uint64_t> offsets(shards_.size() + 1, 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    offsets[s + 1] = offsets[s] + shard_size(s) * stride;
  }
  io::SpillWriter out(next_spill_path(spill_.dir) + ".drain");
  const auto drain_shard = [&](std::size_t s, std::size_t) {
    io::SpillRangeWriter range(out, offsets[s], offsets[s + 1] - offsets[s]);
    merge_shard_rows(shards_[s], runs_[s], stride,
                     [&range, stride](const std::uint8_t* row) {
                       range.append(row, stride);
                     });
    range.finish();
    shards_[s].clear();
    runs_[s].clear();
  };
  for_each_shard(pool, shards_.size(), drain_shard);
  const std::shared_ptr<const io::MmapFile> file = out.seal();
  return FlatPermStore(width_, file, 0, file->size());
}

void ShardedPermStore::clear() {
  for (FlatPermStore& s : shards_) s.clear();
  for (auto& shard_runs : runs_) shard_runs.clear();
}

std::size_t ShardedPermStore::memory_bytes() const {
  std::size_t total = 0;
  for (const FlatPermStore& s : shards_) total += s.memory_bytes();
  return total;
}

std::size_t ShardedPermStore::disk_bytes() const {
  std::size_t total = 0;
  for (const auto& shard_runs : runs_) {
    for (const auto& run : shard_runs) total += run->disk_bytes();
  }
  return total;
}

}  // namespace qsyn::synth
