#include "synth/fmcf.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace qsyn::synth {

namespace {

// The seen set runs unsplit until it holds this many rows per shard.
constexpr std::size_t kSeenCutRowsPerShard = 16;

// Decoded and encoded row buffers of one worker.
struct RowScratch {
  RowScratch(std::size_t width, std::size_t stride)
      : labels(width), product(width), bytes(stride) {}
  std::vector<std::uint16_t> labels;
  std::vector<std::uint16_t> product;
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> candidates;
};

void decode_row(const std::uint8_t* row, std::size_t width,
                std::size_t label_bytes, std::uint16_t* labels) {
  for (std::size_t s = 0; s < width; ++s) {
    labels[s] = static_cast<std::uint16_t>(
        FlatPermStore::read_label(row, s, label_bytes));
  }
}

// One pooled round of a level. `produce(i, worker, emit)` runs for every row
// i of `input` and emits up to `per_row` rows, each routed to its owning
// shard of `store`. Rows are produced in super-chunks of at most
// `round_rows` candidates; after each, every live shard's candidates are
// sort_unique'd and handed to `settle(s, chunk)` in a second round.
//
// Worker-local per-shard buffers: the produce round routes rows into
// locals[worker][shard] without any synchronization, and the settle round
// radix-sorts one shard's rows straight out of every worker's buffer and
// releases them. Appending order across workers is scheduling-dependent,
// but each shard is sort_unique'd before use, so the resulting *sets* — and
// hence every stat — are identical to the single-threaded sweep.
template <typename Produce, typename Settle>
void fan_out(ThreadPool& pool, std::size_t threads, std::size_t round_rows,
             const FlatPermStore& input, std::size_t per_row,
             const ShardedPermStore& store, Produce&& produce,
             Settle&& settle) {
  if (per_row == 0 || input.empty()) return;
  const std::size_t width = store.width();
  const std::size_t stride = input.row_stride();
  const std::size_t live = store.live_shards();
  std::vector<std::vector<FlatPermStore>> locals(threads);
  for (auto& per_worker : locals) {
    per_worker.reserve(live);
    for (std::size_t s = 0; s < live; ++s) per_worker.emplace_back(width);
  }

  const std::size_t rows_per_super =
      std::max<std::size_t>(1, round_rows / per_row);
  for (std::size_t super = 0; super < input.size(); super += rows_per_super) {
    const std::size_t super_end =
        std::min(input.size(), super + rows_per_super);
    const std::size_t super_rows = super_end - super;
    // Each buffer reserves its even share of the candidate bound up front
    // (address space only: pages are touched as rows land), so most never
    // regrow and copy.
    const std::size_t share = super_rows * per_row / (threads * live) + 1;
    for (auto& per_worker : locals) {
      for (FlatPermStore& buffer : per_worker) buffer.reserve_rows(share);
    }
    // Small blocks load-balance uneven rows (banned-set pruning); at least
    // 4 blocks per worker, capped so tiny inputs stay single-block.
    const std::size_t block_rows = std::max<std::size_t>(
        1, std::min<std::size_t>(4096, super_rows / (4 * threads) + 1));
    const std::size_t blocks = (super_rows + block_rows - 1) / block_rows;
    pool.run(blocks, [&](std::size_t block, std::size_t worker) {
      std::vector<FlatPermStore>& buffers = locals[worker];
      const bool route = live > 1;  // an unsplit store routes to shard 0
      const auto emit = [&](const std::uint8_t* row) {
        buffers[route ? store.shard_of(row) : 0].push_back(row);
      };
      const std::size_t begin = super + block * block_rows;
      const std::size_t end = std::min(super_end, begin + block_rows);
      for (std::size_t i = begin; i < end; ++i) produce(i, worker, emit);
    });
    pool.run(live, [&](std::size_t s, std::size_t) {
      std::vector<simd::RowRange> ranges;
      ranges.reserve(threads);
      for (const auto& per_worker : locals) {
        const FlatPermStore& buffer = per_worker[s];
        if (!buffer.empty()) ranges.push_back({buffer.data(), buffer.size()});
      }
      if (ranges.empty()) return;
      simd::RowBytes sorted;
      simd::sort_unique_rows(ranges.data(), ranges.size(), stride, sorted);
      for (auto& per_worker : locals) per_worker[s].clear();
      FlatPermStore chunk(width);
      chunk.assign_rows(std::move(sorted));
      settle(s, std::move(chunk));
    });
  }
}

// Runs body(i, worker) for every i in [0, count), in blocks of the pool.
// A pool round waits for every worker to check in, and on a shared host a
// descheduled worker stalls it: pooling the 490-rep orbit count at n = 5,
// k = 3 halved its median but raised its p99 from ~1.5 to 6-9 ms. So a
// block holds at least kMinBlockRows rows, and smaller inputs run inline.
constexpr std::size_t kMinBlockRows = 1024;

template <typename Body>
void for_each_row(ThreadPool& pool, std::size_t count, Body&& body) {
  if (count == 0) return;
  const std::size_t block_rows = std::max<std::size_t>(
      kMinBlockRows,
      std::min<std::size_t>(4096, count / (4 * pool.size()) + 1));
  pool.run((count + block_rows - 1) / block_rows,
           [&](std::size_t block, std::size_t worker) {
             const std::size_t begin = block * block_rows;
             const std::size_t end = std::min(count, begin + block_rows);
             for (std::size_t i = begin; i < end; ++i) body(i, worker);
           });
}

// The open-addressing slot of an orbit hash in a table of `slots` (a power
// of two): the top bits of a Fibonacci-hashed product.
std::size_t hash_slot(std::uint64_t hash, std::size_t slots) {
  return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ull) >> 32) &
         (slots - 1);
}

// The G key of a binary-preserving row: one byte per binary point; at most
// 32 points (5 wires) x 8 bits fill the 256-bit key. Binary images are
// < 2^n <= 32, so a byte always suffices.
template <typename Image>
GKey key_of(std::size_t binary_count, Image&& image) {
  GKey key{};
  for (std::size_t s = 0; s < binary_count; ++s) {
    key[s >> 3] |= static_cast<std::uint64_t>(image(s)) << (8 * (s & 7));
  }
  return key;
}

void check_domain(const mvl::PatternDomain& domain) {
  QSYN_CHECK(domain.wires() <= 5,
             "FMCF G-set keys support up to 5 wires (32 binary labels)");
  // Sanity: the first 2^n labels must be the binary patterns (reduced-domain
  // ordering), otherwise S != {1..2^n} and the restriction logic is wrong.
  for (std::uint32_t label = 1; label <= domain.binary_count(); ++label) {
    QSYN_CHECK(domain.pattern(label).is_binary(),
               "FMCF requires a domain with binary labels first");
  }
}

}  // namespace

FmcfEnumerator::FmcfEnumerator(const gates::GateLibrary& library,
                               ClosureConfig options)
    : library_(&library),
      options_(options),
      width_(library.domain().size()),
      binary_count_(library.domain().binary_count()),
      label_bytes_(width_ <= 256 ? 1 : 2),
      stride_(width_ * label_bytes_),
      threads_(resolve_threads(options.threads)),
      shards_(resolve_shards(options.shards, threads_)),
      spill_budget_(resolve_spill_budget(options.spill_budget_bytes)),
      spill_dir_(spill_budget_ != 0 ? resolve_spill_dir(options.spill_dir)
                                    : options.spill_dir),
      symmetry_(library),
      seen_(library.domain().size(), shards_,
            SpillOptions{spill_budget_, spill_dir_}) {
  check_domain(library.domain());

  // Level 0: the identity, its own orbit.
  const perm::Permutation id = perm::Permutation::identity(width_);
  seen_.push_back(id);
  levels_.emplace_back(FlatPermStore(width_));
  levels_.back().reps.push_back(id);
  count_orbits(levels_.back());

  const GKey id_key = key_of(binary_count_, [](std::size_t s) { return s; });
  g_seen_keys_.push_back(id_key);
  g_index_.emplace(id_key, GEntry{0, 0});
}

FmcfEnumerator::FmcfEnumerator(const gates::GateLibrary& library,
                               ClosureConfig options, CatalogTag)
    : library_(&library),
      options_(options),
      width_(library.domain().size()),
      binary_count_(library.domain().binary_count()),
      label_bytes_(width_ <= 256 ? 1 : 2),
      stride_(width_ * label_bytes_),
      threads_(resolve_threads(options.threads)),
      shards_(resolve_shards(options.shards, threads_)),
      spill_budget_(0),
      // Catalog-backed enumerators never advance(), so the seen set stays
      // empty; one shard keeps it inert. The symmetry names the orbits the
      // saved reps stand for.
      symmetry_(library),
      seen_(library.domain().size(), 1),
      read_only_(true) {
  check_domain(library.domain());
}

FmcfEnumerator::~FmcfEnumerator() = default;
FmcfEnumerator::FmcfEnumerator(FmcfEnumerator&&) noexcept = default;
FmcfEnumerator& FmcfEnumerator::operator=(FmcfEnumerator&&) noexcept = default;

bool FmcfEnumerator::row_is_binary_preserving(const std::uint8_t* row) const {
  for (std::size_t s = 0; s < binary_count_; ++s) {
    if (row_label(row, s) >= binary_count_) return false;
  }
  return true;
}

const FmcfLevelStats& FmcfEnumerator::advance() {
  QSYN_CHECK(!read_only_,
             "catalog-backed FmcfEnumerator is read-only: reopened catalogs "
             "serve their saved levels, they never re-enumerate");
  if (saturated()) return stats_.back();
  // Workers spawn on the first level, not at construction.
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
  const std::uint64_t start_ns = metrics::now_ns();
  const unsigned k = levels_done() + 1;
  const FlatPermStore& last = levels_.back().reps;
  QSYN_CHECK(!last.empty() || k == 1,
             "closure already exhausted (empty frontier)");
  const SpillOptions spill{spill_budget_, spill_dir_};
  std::vector<RowScratch> scratch(threads_, RowScratch(width_, stride_));
  // A round's candidates are bounded in rows, and with a spill budget in
  // bytes too, so the worker buffers hold no more than the budget. A shard
  // of the store a round settles into seals about once per round, and every
  // run is a file and a mapping, so rounds never shrink below one spill
  // write buffer (1 MiB): budgets of a few KiB would otherwise seal thousands
  // of runs per shard and subtract against all of them every round.
  std::size_t round_rows = options_.chunk_rows;
  if (spill_budget_ != 0) {
    const std::size_t round_bytes =
        std::max(spill_budget_, io::kSpillWriteBufferBytes);
    round_rows = std::min(round_rows, round_bytes / stride_);
  }

  // Rep step: R[k-1] x L, each product canonicalized, minus the seen reps.
  // A product of a conjugate of a rep is a conjugate of a product of that
  // rep (the relabeled gate is in L and allowed alike), so expanding the
  // reps reaches every orbit of B[k].
  const gates::GateLibrary& library = *library_;
  const mvl::PatternDomain& domain = library.domain();
  const std::size_t gate_count = library.size();
  ShardedPermStore fresh_reps(width_, shards_, spill);
  if (seen_.live_shards() > 1) fresh_reps.split(seen_.splitters());
  fan_out(
      *pool_, threads_, round_rows, last, gate_count, fresh_reps,
      [&](std::size_t i, std::size_t worker, const auto& emit) {
        RowScratch& w = scratch[worker];
        decode_row(last.row(i), width_, label_bytes_, w.labels.data());
        const std::uint32_t banned =
            options_.use_banned_sets ? domain.banned_of(w.labels.data()) : 0u;
        for (std::size_t g = 0; g < gate_count; ++g) {
          if ((banned & library.class_bit(g)) != 0) continue;
          const std::uint16_t* table = library.table(g);
          for (std::size_t s = 0; s < width_; ++s) {
            w.product[s] = table[w.labels[s]];
          }
          symmetry_.canonicalize(w.product.data(), label_bytes_,
                                 w.bytes.data(), w.candidates);
          emit(w.bytes.data());
        }
      },
      [&](std::size_t s, FlatPermStore&& chunk) {
        // Subtract against the *whole* shard — active rows and any sealed
        // spill runs — of both the seen set and this level's accumulator.
        // Every piece a shard holds therefore stays mutually disjoint, which
        // keeps sizes exact and the per-level stats spill-invariant.
        seen_.subtract_shard_from(s, chunk);
        fresh_reps.subtract_shard_from(s, chunk);
        fresh_reps.merge_into_shard(s, std::move(chunk));
      });
  // fresh_reps now holds R[k], shard-sorted. Update the seen set per shard
  // (sealed runs are adopted by reference, not rewritten), then drain R[k]
  // sorted: the monotone shard partition makes it byte-identical to the
  // single-threaded all-in-RAM level.
  pool_->run(fresh_reps.live_shards(), [&](std::size_t s, std::size_t) {
    seen_.absorb_shard(s, fresh_reps);
  });
  RepLevel level(fresh_reps.drain_sorted(pool_.get()));

  // Canonical rows cluster low in memcmp order, and where they cluster
  // drifts from level to level, so no one rep level samples the next well.
  // The seen set is cut at its own evenly spaced rows instead: once it holds
  // kSeenCutRowsPerShard rows per shard, and again whenever it has grown 4x
  // since the last cut. The set is small and sorted, so a cut is a range
  // copy per shard, and geometric growth keeps the copies at O(1) per row.
  // A spilled seen set is cut only once: re-cutting it would rewrite every
  // sealed run as budget-slice-sized files.
  const std::size_t seen_reps = seen_.size();
  if (shards_ > 1 && seen_reps >= kSeenCutRowsPerShard * shards_ &&
      seen_reps >= 4 * seen_reps_at_cut_ &&
      (seen_.live_shards() == 1 || !seen_.spilled())) {
    seen_.split_evenly(pool_.get());
    seen_reps_at_cut_ = seen_reps;
  }

  count_orbits(level, pool_.get());
  const std::size_t frontier = level.starts.back();
  if (!options_.track_witnesses) {
    levels_.back() = RepLevel(FlatPermStore(width_));
  }
  levels_.push_back(std::move(level));
  const std::size_t new_before = g_seen_keys_.size();
  const std::size_t pre_g = extract_g_keys(k);

  FmcfLevelStats stats;
  stats.cost = k;
  stats.frontier = frontier;
  stats.g_new = g_seen_keys_.size() - new_before;
  stats.pre_g = pre_g;
  stats.seen = seen_count() + frontier;
  stats.seconds = metrics::seconds_since(start_ns);
  stats_.push_back(stats);
  return stats_.back();
}

void FmcfEnumerator::count_orbits(RepLevel& level, ThreadPool* pool) const {
  // About 130 ns per rep at n = 3. On the closure's warm pool the cb = 7
  // count takes 4-6 ms instead of 11-13 ms serially (4 threads on a 4-CPU
  // host); a pool spawned only for it, as a catalog open would need,
  // measured slower.
  const FlatPermStore& reps = level.reps;
  level.starts.assign(reps.size() + 1, 0);
  std::vector<OrbitWalk> walks(pool != nullptr ? pool->size() : 1,
                               OrbitWalk(width_));
  const auto size_orbit = [&](std::size_t i, std::size_t worker) {
    OrbitWalk& w = walks[worker];
    decode_row(reps.row(i), width_, label_bytes_, w.labels.data());
    level.starts[i + 1] = symmetry_.orbit_size(w.labels.data(), w.orbit.moved);
  };
  if (pool != nullptr) {
    for_each_row(*pool, reps.size(), size_orbit);
  } else {
    for (std::size_t i = 0; i < reps.size(); ++i) size_orbit(i, 0);
  }
  std::partial_sum(level.starts.begin(), level.starts.end(),
                   level.starts.begin());
}

bool FmcfEnumerator::orbit_in(const RepLevel& level,
                              const std::uint16_t* labels,
                              std::vector<std::uint16_t>& rep,
                              std::vector<std::uint16_t>& moved) const {
  std::call_once(*level.indexed, [&] {
    const std::size_t count = level.reps.size();
    level.hashes.resize(count);
    std::size_t slots = 2;
    while (slots < 2 * count) slots *= 2;
    level.slots.assign(slots, 0);
    for (std::size_t i = 0; i < count; ++i) {
      decode_row(level.reps.row(i), width_, label_bytes_, rep.data());
      level.hashes[i] = symmetry_.orbit_hash(rep.data());
      std::size_t slot = hash_slot(level.hashes[i], slots);
      while (level.slots[slot] != 0) slot = (slot + 1) & (slots - 1);
      level.slots[slot] = i + 1;
    }
  });
  const std::uint64_t hash = symmetry_.orbit_hash(labels);
  const std::size_t mask = level.slots.size() - 1;
  for (std::size_t slot = hash_slot(hash, level.slots.size());
       level.slots[slot] != 0; slot = (slot + 1) & mask) {
    const std::size_t i = level.slots[slot] - 1;
    if (level.hashes[i] != hash) continue;
    decode_row(level.reps.row(i), width_, label_bytes_, rep.data());
    if (symmetry_.is_conjugate(rep.data(), labels, moved)) return true;
  }
  return false;
}

template <typename Visit>
void FmcfEnumerator::visit_keys(const RepLevel& level, std::size_t i,
                                OrbitWalk& walk, Visit&& visit) const {
  // A relabeling maps binary labels to binary labels, so a conjugate's key
  // is read off its first 2^n labels.
  const std::uint8_t* row = level.reps.row(i);
  if (!row_is_binary_preserving(row)) return;
  decode_row(row, width_, label_bytes_, walk.labels.data());
  symmetry_.orbit_elements(walk.labels.data(), walk.elements, walk.orbit);
  for (std::size_t j = 0; j < walk.elements.size(); ++j) {
    const std::uint32_t e = walk.elements[j];
    visit(key_of(binary_count_,
                 [&](std::size_t s) {
                   return symmetry_.conjugate_label(e, walk.labels.data(), s);
                 }),
          j, e);
  }
}

std::size_t FmcfEnumerator::extract_g_keys(unsigned k) {
  // Each key's witness is its memcmp-least row. Every pool task keeps the
  // least conjugate it has met per key, as the (rep, element) pair that
  // names it; the tasks' maps then merge the same way. Rows sharing a key
  // share their first 2^n labels, so two candidates are compared lazily
  // from label 2^n on, up to the first label that differs. No record is
  // kept per conjugate: the maps hold one entry per key.
  const RepLevel& level = levels_[k];
  struct Candidate {
    std::size_t index;  // orbit-order index in B[k]
    std::size_t rep;
    std::uint32_t element;
  };
  using BestRows = std::unordered_map<GKey, Candidate, GKeyHash>;
  const auto offer = [&](BestRows& best, const GKey& key, const Candidate& c) {
    const auto [it, inserted] = best.try_emplace(key, c);
    if (inserted) return;
    const Candidate& held = it->second;
    const std::uint8_t* row = level.reps.row(c.rep);
    const std::uint8_t* held_row = level.reps.row(held.rep);
    for (std::size_t l = binary_count_; l < width_; ++l) {
      const std::uint16_t label =
          symmetry_.conjugate_label(c.element, row, label_bytes_, l);
      const std::uint16_t held_label =
          symmetry_.conjugate_label(held.element, held_row, label_bytes_, l);
      if (label != held_label) {
        if (label < held_label) it->second = c;
        return;
      }
    }
  };
  // One task per worker, task t taking every T-th rep. What each map holds
  // then does not depend on scheduling, and the reps of one key, which sit
  // close together in R[k], land in different maps: the merge decides
  // their witness on every run, not only on some schedules. A level of
  // fewer than kMinBlockRows reps runs as one task on the caller, for the
  // reason for_each_row gives.
  struct Task {
    explicit Task(std::size_t width) : walk(width) {}
    OrbitWalk walk;
    BestRows best;
  };
  const std::size_t reps = level.reps.size();
  std::vector<Task> tasks(reps < kMinBlockRows ? 1 : threads_, Task(width_));
  pool_->run(tasks.size(), [&](std::size_t t, std::size_t) {
    Task& task = tasks[t];
    for (std::size_t i = t; i < reps; i += tasks.size()) {
      visit_keys(level, i, task.walk,
                 [&](const GKey& key, std::size_t j, std::uint32_t e) {
                   offer(task.best, key, Candidate{level.starts[i] + j, i, e});
                 });
    }
  });
  BestRows& best = tasks[0].best;
  for (std::size_t t = 1; t < tasks.size(); ++t) {
    for (const auto& [key, candidate] : tasks[t].best) {
      offer(best, key, candidate);
    }
  }
  std::vector<std::pair<GKey, std::size_t>> keyed;  // (key, witness index)
  keyed.reserve(best.size());
  for (const auto& [key, candidate] : best) {
    keyed.emplace_back(key, candidate.index);
  }
  std::sort(keyed.begin(), keyed.end());

  // Each key not seen at a lower cost is new in G[k].
  std::vector<GKey> new_keys;
  auto seen_key = g_seen_keys_.begin();
  for (const auto& [key, witness] : keyed) {
    seen_key = std::lower_bound(seen_key, g_seen_keys_.end(), key);
    if (seen_key != g_seen_keys_.end() && *seen_key == key) continue;
    new_keys.push_back(key);
    g_index_.emplace(key, GEntry{k, witness});
  }
  std::vector<GKey> merged_keys;
  merged_keys.reserve(g_seen_keys_.size() + new_keys.size());
  std::merge(g_seen_keys_.begin(), g_seen_keys_.end(), new_keys.begin(),
             new_keys.end(), std::back_inserter(merged_keys));
  g_seen_keys_ = std::move(merged_keys);
  return keyed.size();
}

void FmcfEnumerator::orbit_row(unsigned k, std::size_t index,
                               std::uint16_t* labels, OrbitWalk& walk) const {
  const RepLevel& level = levels_[k];
  QSYN_CHECK(!level.starts.empty() && index < level.starts.back(),
             "row index outside the frontier");
  const std::size_t rep = static_cast<std::size_t>(
      std::upper_bound(level.starts.begin(), level.starts.end(), index) -
      level.starts.begin() - 1);
  decode_row(level.reps.row(rep), width_, label_bytes_, walk.labels.data());
  symmetry_.orbit_elements(walk.labels.data(), walk.elements, walk.orbit);
  const std::uint32_t e = walk.elements[index - level.starts[rep]];
  for (std::size_t l = 0; l < width_; ++l) {
    labels[l] = symmetry_.conjugate_label(e, walk.labels.data(), l);
  }
}

void FmcfEnumerator::run_to(unsigned max_cost) {
  while (levels_done() < max_cost && !saturated()) advance();
}

std::vector<perm::Permutation> FmcfEnumerator::g_set(unsigned k) const {
  QSYN_CHECK(k <= levels_done(), "level not yet computed");
  std::vector<perm::Permutation> out;
  for (const auto& [key, entry] : g_index_) {
    if (entry.cost != k) continue;
    std::vector<std::uint32_t> images(binary_count_);
    for (std::size_t s = 0; s < binary_count_; ++s) {
      images[s] =
          static_cast<std::uint32_t>(key[s >> 3] >> (8 * (s & 7)) & 0xff) + 1;
    }
    out.push_back(perm::Permutation::from_images(std::move(images)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

GKey key_of_restricted(const perm::Permutation& restricted,
                       std::size_t binary_count) {
  QSYN_CHECK(restricted.degree() <= binary_count,
             "restricted permutation degree exceeds 2^n");
  return key_of(binary_count, [&](std::size_t s) {
    return restricted.apply(static_cast<std::uint32_t>(s + 1)) - 1;
  });
}

}  // namespace

std::optional<GEntry> FmcfEnumerator::find(
    const perm::Permutation& restricted) const {
  const auto it = g_index_.find(key_of_restricted(restricted, binary_count_));
  if (it == g_index_.end()) return std::nullopt;
  return it->second;
}

gates::Cascade FmcfEnumerator::witness(const GEntry& entry) const {
  return witness_for_row(entry.cost, entry.frontier_index);
}

gates::Cascade FmcfEnumerator::witness_for_row(unsigned k,
                                               std::size_t row_index) const {
  QSYN_CHECK(options_.track_witnesses,
             "witness reconstruction requires track_witnesses");
  QSYN_CHECK(k <= levels_done(), "level not yet computed");
  // Back-walk: repeatedly find a gate d and predecessor prev in B[j-1] with
  // prev * d == current and the product reasonable, taking the lowest valid
  // gate index. B[j-1] is a union of orbits, so prev is in it exactly when
  // its canonical row is in R[j-1].
  std::vector<gates::Gate> sequence;
  OrbitWalk walk(width_);
  std::vector<std::uint16_t> current(width_);
  orbit_row(k, row_index, current.data(), walk);
  const gates::GateLibrary& library = *library_;
  const std::size_t gate_count = library.size();
  std::vector<std::uint16_t> prev(width_);

  const auto candidate_ok = [&](unsigned j, std::size_t g) {
    const std::uint16_t* inv = library.inverse_table(g);
    for (std::size_t s = 0; s < width_; ++s) prev[s] = inv[current[s]];
    if (options_.use_banned_sets &&
        (library.domain().banned_of(prev.data()) & library.class_bit(g)) !=
            0) {
      return false;
    }
    return orbit_in(levels_[j - 1], prev.data(), walk.labels,
                    walk.orbit.moved);
  };

  for (unsigned j = k; j >= 1; --j) {
    std::size_t chosen = 0;
    while (chosen < gate_count && !candidate_ok(j, chosen)) ++chosen;
    QSYN_CHECK(chosen < gate_count, "back-walk failed: frontier inconsistency");
    sequence.push_back(library.gate(chosen));
    current.swap(prev);
  }
  std::reverse(sequence.begin(), sequence.end());
  return gates::Cascade(library.domain().wires(), std::move(sequence));
}

std::vector<std::size_t> FmcfEnumerator::implementations(
    const perm::Permutation& restricted, unsigned k) const {
  QSYN_CHECK(options_.track_witnesses,
             "implementation scan requires track_witnesses");
  QSYN_CHECK(k <= levels_done(), "level not yet computed");
  const GKey target = key_of_restricted(restricted, binary_count_);
  const RepLevel& level = levels_[k];
  std::vector<std::pair<std::vector<std::uint16_t>, std::size_t>> rows;
  OrbitWalk walk(width_);
  for (std::size_t i = 0; i < level.reps.size(); ++i) {
    visit_keys(level, i, walk,
               [&](const GKey& key, std::size_t j, std::uint32_t e) {
                 if (key != target) return;
                 std::vector<std::uint16_t> row(width_);
                 for (std::size_t l = 0; l < width_; ++l) {
                   row[l] = symmetry_.conjugate_label(e, walk.labels.data(), l);
                 }
                 rows.emplace_back(std::move(row), level.starts[i] + j);
               });
  }
  std::sort(rows.begin(), rows.end());
  std::vector<std::size_t> indices;
  indices.reserve(rows.size());
  for (const auto& row : rows) indices.push_back(row.second);
  return indices;
}

const FlatPermStore& FmcfEnumerator::reps(unsigned k) const {
  QSYN_CHECK(k <= levels_done(), "level not yet computed");
  return levels_[k].reps;
}

FlatPermStore FmcfEnumerator::frontier(unsigned k) const {
  const FlatPermStore& level = reps(k);
  simd::RowBytes rows;
  OrbitWalk walk(width_);
  std::vector<std::uint8_t> bytes(stride_);
  for (std::size_t i = 0; i < level.size(); ++i) {
    decode_row(level.row(i), width_, label_bytes_, walk.labels.data());
    symmetry_.orbit_elements(walk.labels.data(), walk.elements, walk.orbit);
    for (const std::uint32_t e : walk.elements) {
      symmetry_.conjugate(e, walk.labels.data(), label_bytes_, bytes.data());
      rows.append(bytes.data(), stride_);
    }
  }
  simd::RowBytes sorted;
  simd::sort_unique_rows(rows.data(), rows.size() / stride_, stride_, sorted);
  FlatPermStore out(width_);
  out.assign_rows(std::move(sorted));
  return out;
}

std::vector<std::size_t> FmcfEnumerator::seen_shard_rows() const {
  std::vector<std::size_t> rows(seen_.shard_count());
  for (std::size_t s = 0; s < rows.size(); ++s) rows[s] = seen_.shard_size(s);
  return rows;
}

std::size_t FmcfEnumerator::memory_bytes() const {
  std::size_t total = seen_.memory_bytes();
  for (const RepLevel& level : levels_) {
    total += level.reps.memory_bytes() +
             level.starts.capacity() * sizeof(std::size_t) +
             level.hashes.capacity() * sizeof(std::uint64_t) +
             level.slots.capacity() * sizeof(std::size_t);
  }
  return total;
}

std::size_t FmcfEnumerator::disk_bytes() const {
  std::size_t total = seen_.disk_bytes();
  for (const RepLevel& level : levels_) total += level.reps.disk_bytes();
  return total;
}

}  // namespace qsyn::synth
