#include "synth/fmcf.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace qsyn::synth {

namespace {

// Frontier stores run unsplit until a frontier holds this many rows per
// shard; that sorted frontier is the pilot sample their splitters are cut
// from.
constexpr std::size_t kPilotRowsPerShard = 64;

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

// The first row after row `i` of sorted `rows` whose leading `bytes` bytes
// differ from row i's: rows sharing them form one block, found by galloping
// forward from i and then bisecting the last step.
std::size_t end_of_block(const FlatPermStore& rows, std::size_t i,
                         std::size_t bytes) {
  const std::uint8_t* head = rows.row(i);
  const auto same = [&](std::size_t j) {
    return std::memcmp(rows.row(j), head, bytes) == 0;
  };
  std::size_t lo = i;  // the last row known to share the bytes
  std::size_t step = 1;
  while (lo + step < rows.size() && same(lo + step)) {
    lo += step;
    step *= 2;
  }
  std::size_t hi = std::min(rows.size(), lo + step);  // differs, or the end
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (same(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
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
            SpillOptions{spill_budget_, spill_dir_}),
      reps_(width_),
      frontier_splitters_(width_) {
  init_gate_tables();

  // Level 0: the identity, its own orbit.
  const perm::Permutation id =
      perm::Permutation::identity(width_);
  seen_.push_back(id);
  reps_.push_back(id);
  frontiers_.emplace_back(width_);
  frontiers_.back().push_back(id);

  const GKey id_key = g_key_of_row(frontiers_.back().row(0));
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
      // Catalog-backed enumerators never advance(), so they skip the
      // symmetry search and the seen-set stays empty; one shard keeps it
      // inert.
      symmetry_(width_),
      seen_(library.domain().size(), 1),
      reps_(width_),
      frontier_splitters_(width_),
      read_only_(true) {
  init_gate_tables();
}

void FmcfEnumerator::init_gate_tables() {
  const mvl::PatternDomain& domain = library_->domain();
  QSYN_CHECK(domain.wires() <= 5,
             "FMCF G-set keys support up to 5 wires (32 binary labels)");
  // Sanity: the first 2^n labels must be the binary patterns (reduced-domain
  // ordering), otherwise S != {1..2^n} and the restriction logic is wrong.
  for (std::uint32_t label = 1; label <= binary_count_; ++label) {
    QSYN_CHECK(domain.pattern(label).is_binary(),
               "FMCF requires a domain with binary labels first");
  }

  gate_tables_.reserve(library_->size());
  gate_inv_tables_.reserve(library_->size());
  gate_class_bits_.reserve(library_->size());
  for (std::size_t g = 0; g < library_->size(); ++g) {
    const perm::Permutation& p = library_->permutation(g);
    std::vector<std::uint16_t> table(width_);
    std::vector<std::uint16_t> inv(width_);
    for (std::size_t s = 0; s < width_; ++s) {
      const std::uint32_t image = p.apply(static_cast<std::uint32_t>(s + 1));
      table[s] = static_cast<std::uint16_t>(image - 1);
      inv[image - 1] = static_cast<std::uint16_t>(s);
    }
    gate_tables_.push_back(std::move(table));
    gate_inv_tables_.push_back(std::move(inv));
    gate_class_bits_.push_back(1u << library_->banned_class_of(g));
  }
  label_banned_.resize(width_);
  for (std::uint32_t label = 1; label <= width_; ++label) {
    label_banned_[label - 1] = domain.banned_mask(label);
  }
}

FmcfEnumerator::~FmcfEnumerator() = default;
FmcfEnumerator::FmcfEnumerator(FmcfEnumerator&&) noexcept = default;
FmcfEnumerator& FmcfEnumerator::operator=(FmcfEnumerator&&) noexcept = default;

std::uint32_t FmcfEnumerator::banned_mask_of_row(
    const std::uint8_t* row) const {
  std::uint32_t mask = 0;
  if (label_bytes_ == 1) {
    for (std::size_t s = 0; s < binary_count_; ++s) {
      mask |= label_banned_[row[s]];
    }
  } else {
    for (std::size_t s = 0; s < binary_count_; ++s) {
      mask |= label_banned_[static_cast<std::size_t>(row[2 * s]) << 8 |
                            row[2 * s + 1]];
    }
  }
  return mask;
}

bool FmcfEnumerator::row_is_binary_preserving(const std::uint8_t* row) const {
  for (std::size_t s = 0; s < binary_count_; ++s) {
    if (row_label(row, s) >= binary_count_) return false;
  }
  return true;
}

GKey FmcfEnumerator::g_key_of_row(const std::uint8_t* row) const {
  // One byte per binary point; at most 32 points (5 wires) x 8 bits fill the
  // 256-bit key. Binary images are < 2^n <= 32, so a byte always suffices.
  GKey key{};
  for (std::size_t s = 0; s < binary_count_; ++s) {
    key[s >> 3] |= static_cast<std::uint64_t>(row_label(row, s))
                   << (8 * (s & 7));
  }
  return key;
}

ThreadPool& FmcfEnumerator::worker_pool() {
  // Workers spawn on the first sweep, not at construction, so enumerators
  // that only probe already-computed levels stay thread-free.
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

const FmcfLevelStats& FmcfEnumerator::advance() {
  QSYN_CHECK(!read_only_,
             "catalog-backed FmcfEnumerator is read-only: reopened catalogs "
             "serve their saved levels, they never re-enumerate");
  if (saturated()) return stats_.back();
  (void)worker_pool();
  const std::uint64_t start_ns = metrics::now_ns();
  const unsigned k = levels_done() + 1;
  QSYN_CHECK(!reps_.empty() || k == 1,
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
  const std::size_t gate_count = gate_tables_.size();
  ShardedPermStore fresh_reps(width_, shards_, spill);
  if (seen_.live_shards() > 1) fresh_reps.split(seen_.splitters());
  fan_out(
      *pool_, threads_, round_rows, reps_, gate_count, fresh_reps,
      [&](std::size_t i, std::size_t worker, const auto& emit) {
        RowScratch& w = scratch[worker];
        const std::uint8_t* row = reps_.row(i);
        const std::uint32_t banned =
            options_.use_banned_sets ? banned_mask_of_row(row) : 0u;
        decode_row(row, width_, label_bytes_, w.labels.data());
        for (std::size_t g = 0; g < gate_count; ++g) {
          if ((banned & gate_class_bits_[g]) != 0) continue;
          const std::uint16_t* table = gate_tables_[g].data();
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
  // sorted for the next level.
  pool_->run(fresh_reps.live_shards(), [&](std::size_t s, std::size_t) {
    seen_.absorb_shard(s, fresh_reps);
  });
  FlatPermStore reps = fresh_reps.drain_sorted(pool_.get());

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
    seen_.split_evenly();
    seen_reps_at_cut_ = seen_reps;
  }

  // Materialize B[k]: every rep's distinct conjugates. Orbits are disjoint,
  // so the rows are too and go straight into the level's store.
  ShardedPermStore level(width_, shards_, spill);
  if (!frontier_splitters_.empty()) level.split(frontier_splitters_);
  fan_out(
      *pool_, threads_, round_rows, reps, symmetry_.order(), level,
      [&](std::size_t i, std::size_t worker, const auto& emit) {
        RowScratch& w = scratch[worker];
        decode_row(reps.row(i), width_, label_bytes_, w.labels.data());
        symmetry_.orbit_elements(w.labels.data(), w.candidates);
        for (const std::uint32_t e : w.candidates) {
          symmetry_.conjugate(e, w.labels.data(), label_bytes_,
                              w.bytes.data());
          emit(w.bytes.data());
        }
      },
      [&](std::size_t s, FlatPermStore&& chunk) {
        level.merge_into_shard(s, std::move(chunk));
      });

  // The shard partition is monotone, so draining yields B[k] globally
  // sorted — byte-identical to the single-threaded all-in-RAM frontier,
  // preserving row indices for witnesses and the deterministic G-key
  // extraction below. The shards are copied out in the pool; when the level
  // spilled, the frontier comes back as one sealed spill file mmap'd
  // read-only instead of a heap store.
  FlatPermStore fresh = level.drain_sorted(pool_.get());

  // The first frontier big enough to sample is the pilot for the frontier
  // stores of every later level.
  if (frontier_splitters_.empty() && shards_ > 1 &&
      fresh.size() >= kPilotRowsPerShard * shards_) {
    frontier_splitters_ = ShardedPermStore::splitters_from(fresh, shards_);
  }

  // Extract pre_G[k] and G[k] in one pass over the sorted frontier. A G key
  // is the row prefix of its binary labels, so each key is one contiguous
  // block of rows and the block's first row is the lowest-row witness. A row
  // whose first non-binary image is at binary point p > 0 starts a block of
  // rows sharing labels [0, p), all of whose images of p sort at or above
  // its own, so none of them is binary-preserving either. The pass visits
  // the first row of each such block and skips the rest by galloping
  // search, reading a small share of the frontier's pages. Rows sort by
  // their first label, so once it leaves the binary labels no later row can
  // be binary-preserving.
  std::vector<std::pair<GKey, std::size_t>> level_keys;  // (key, witness row)
  for (std::size_t i = 0; i < fresh.size();) {
    const std::uint8_t* row = fresh.row(i);
    std::size_t p = 0;
    while (p < binary_count_ && row_label(row, p) < binary_count_) ++p;
    if (p == 0) break;
    if (p == binary_count_) level_keys.emplace_back(g_key_of_row(row), i);
    i = end_of_block(fresh, i, p * label_bytes_);
  }
  std::sort(level_keys.begin(), level_keys.end());
  const std::size_t pre_g = level_keys.size();

  // Register the witness of every key not seen at a lower cost.
  std::vector<GKey> new_keys;
  auto seen_key = g_seen_keys_.begin();
  for (const auto& [key, row] : level_keys) {
    seen_key = std::lower_bound(seen_key, g_seen_keys_.end(), key);
    if (seen_key != g_seen_keys_.end() && *seen_key == key) continue;
    new_keys.push_back(key);
    g_index_.emplace(key, GEntry{k, row});
  }
  std::vector<GKey> merged_keys;
  merged_keys.reserve(g_seen_keys_.size() + new_keys.size());
  std::merge(g_seen_keys_.begin(), g_seen_keys_.end(), new_keys.begin(),
             new_keys.end(), std::back_inserter(merged_keys));
  g_seen_keys_ = std::move(merged_keys);

  FmcfLevelStats stats;
  stats.cost = k;
  stats.frontier = fresh.size();
  stats.g_new = new_keys.size();
  stats.pre_g = pre_g;
  stats.seen = seen_count() + fresh.size();

  reps_ = std::move(reps);
  frontiers_.push_back(std::move(fresh));
  if (!options_.track_witnesses && frontiers_.size() >= 2) {
    frontiers_[frontiers_.size() - 2].clear();
  }
  stats.seconds = metrics::seconds_since(start_ns);
  stats_.push_back(stats);
  return stats_.back();
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

std::optional<GEntry> FmcfEnumerator::find(
    const perm::Permutation& restricted) const {
  QSYN_CHECK(restricted.degree() <= binary_count_,
             "restricted permutation degree exceeds 2^n");
  GKey key{};
  for (std::size_t s = 0; s < binary_count_; ++s) {
    const std::uint64_t image =
        restricted.apply(static_cast<std::uint32_t>(s + 1)) - 1;
    key[s >> 3] |= image << (8 * (s & 7));
  }
  const auto it = g_index_.find(key);
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
  // gate index.
  std::vector<gates::Gate> sequence;
  std::vector<std::uint8_t> current(frontiers_[k].row(row_index),
                                    frontiers_[k].row(row_index) + stride_);
  // A reopened catalog's frontier bytes are not checksummed: the walk
  // indexes the gate tables by label, so the start row must hold domain
  // labels (every predecessor the tables produce then does too).
  for (std::size_t s = 0; s < width_; ++s) {
    QSYN_CHECK(row_label(current.data(), s) < width_,
               "frontier row holds a label outside the domain");
  }
  const std::size_t gate_count = gate_inv_tables_.size();
  std::vector<std::uint8_t> prev(stride_);

  const auto invert_into = [&](std::size_t g) {
    const std::uint16_t* inv = gate_inv_tables_[g].data();
    if (label_bytes_ == 1) {
      for (std::size_t s = 0; s < width_; ++s) {
        prev[s] = static_cast<std::uint8_t>(inv[current[s]]);
      }
    } else {
      for (std::size_t s = 0; s < width_; ++s) {
        const std::uint16_t image =
            inv[static_cast<std::size_t>(current[2 * s]) << 8 |
                current[2 * s + 1]];
        prev[2 * s] = static_cast<std::uint8_t>(image >> 8);
        prev[2 * s + 1] = static_cast<std::uint8_t>(image);
      }
    }
  };
  const auto candidate_ok = [&](unsigned j, std::size_t g) {
    if (!frontiers_[j - 1].contains_sorted(prev.data())) return false;
    return !options_.use_banned_sets ||
           (banned_mask_of_row(prev.data()) & gate_class_bits_[g]) == 0;
  };

  for (unsigned j = k; j >= 1; --j) {
    std::size_t chosen = 0;
    for (; chosen < gate_count; ++chosen) {
      invert_into(chosen);
      if (candidate_ok(j, chosen)) break;
    }
    QSYN_CHECK(chosen < gate_count, "back-walk failed: frontier inconsistency");
    sequence.push_back(library_->gate(chosen));
    current = prev;
  }
  std::reverse(sequence.begin(), sequence.end());
  return gates::Cascade(library_->domain().wires(), std::move(sequence));
}

std::vector<std::size_t> FmcfEnumerator::implementations(
    const perm::Permutation& restricted, unsigned k) const {
  QSYN_CHECK(options_.track_witnesses,
             "implementation scan requires track_witnesses");
  QSYN_CHECK(k <= levels_done(), "level not yet computed");
  std::vector<std::size_t> rows;
  const FlatPermStore& frontier = frontiers_[k];
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const std::uint8_t* row = frontier.row(i);
    if (!row_is_binary_preserving(row)) continue;
    bool match = true;
    for (std::size_t s = 0; s < binary_count_ && match; ++s) {
      match = row_label(row, s) + 1 ==
              restricted.apply(static_cast<std::uint32_t>(s + 1));
    }
    if (match) rows.push_back(i);
  }
  return rows;
}

const FlatPermStore& FmcfEnumerator::frontier(unsigned k) const {
  QSYN_CHECK(k <= levels_done(), "level not yet computed");
  return frontiers_[k];
}

std::vector<std::size_t> FmcfEnumerator::seen_shard_rows() const {
  std::vector<std::size_t> rows(seen_.shard_count());
  for (std::size_t s = 0; s < rows.size(); ++s) rows[s] = seen_.shard_size(s);
  return rows;
}

std::size_t FmcfEnumerator::memory_bytes() const {
  std::size_t total = seen_.memory_bytes() + reps_.memory_bytes();
  for (const FlatPermStore& f : frontiers_) total += f.memory_bytes();
  return total;
}

std::size_t FmcfEnumerator::disk_bytes() const {
  std::size_t total = seen_.disk_bytes() + reps_.disk_bytes();
  for (const FlatPermStore& f : frontiers_) total += f.disk_bytes();
  return total;
}

}  // namespace qsyn::synth
