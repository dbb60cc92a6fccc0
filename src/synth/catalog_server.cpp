#include "synth/catalog_server.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"

namespace qsyn::synth {

namespace {

// Cache key: one word per (level, row). A row is an orbit-order index into
// B[level], at most a few hundred million rows, so 48 bits are ample.
std::uint64_t witness_key(unsigned cost, std::size_t row) {
  QSYN_CHECK(row < (std::uint64_t(1) << 48), "frontier row exceeds cache key");
  return static_cast<std::uint64_t>(cost) << 48 | row;
}

}  // namespace

/// The seam adapter behind CatalogServer::as_backend(): stored-answer
/// serving (plus the server's fallback) as a SynthesisBackend.
class CatalogBackend final : public SynthesisBackend {
 public:
  explicit CatalogBackend(CatalogServer& server) : server_(&server) {}

  [[nodiscard]] const gates::GateLibrary& library() const override {
    return server_->enumerator().library();
  }

  /// The stored depth, or the fallback's ceiling when that is higher: a
  /// plugged-in fallback answers the targets beyond the stored levels.
  [[nodiscard]] unsigned max_cost() const override {
    const unsigned stored = server_->enumerator().levels_done();
    std::lock_guard guard(server_->fallback_mutex_);
    if (server_->fallback_ == nullptr) return stored;
    return std::max(stored, server_->fallback_->max_cost());
  }

  [[nodiscard]] std::optional<SynthesisResult> synthesize(
      const perm::Permutation& target) override {
    return server_->synthesize(target);
  }

  [[nodiscard]] std::vector<std::optional<SynthesisResult>> synthesize_batch(
      const std::vector<perm::Permutation>& targets) override {
    return server_->synthesize_batch(targets);
  }

 private:
  CatalogServer* server_;  // outlives the adapter (documented contract)
};

CatalogServer::CatalogServer(FmcfEnumerator enumerator,
                             CatalogServerOptions options)
    : fmcf_(std::move(enumerator)),
      options_(options),
      wires_(fmcf_.library().domain().wires()) {}

CatalogServer::~CatalogServer() = default;

CatalogServer CatalogServer::open(const std::string& path,
                                  const gates::GateLibrary& library,
                                  CatalogServerOptions options) {
  return CatalogServer(FmcfEnumerator::open_catalog(path, library), options);
}

void CatalogServer::set_fallback(std::shared_ptr<SynthesisBackend> fallback) {
  QSYN_CHECK(fallback == nullptr || fallback->library().fingerprint() ==
                                        fmcf_.library().fingerprint(),
             "fallback backend serves a different library than the catalog");
  std::lock_guard guard(fallback_mutex_);
  fallback_ = std::move(fallback);
}

bool CatalogServer::has_fallback() const {
  std::lock_guard guard(fallback_mutex_);
  return fallback_ != nullptr;
}

std::unique_ptr<SynthesisBackend> CatalogServer::as_backend() {
  return std::make_unique<CatalogBackend>(*this);
}

std::optional<SynthesisResult> CatalogServer::fallback_synthesize(
    const perm::Permutation& target) const {
  std::lock_guard guard(fallback_mutex_);
  if (fallback_ == nullptr) return std::nullopt;
  return fallback_->synthesize(target);
}

std::optional<CatalogAnswer> CatalogServer::locate(
    const perm::Permutation& target) const {
  NotStripped stripped = strip_not_prefix(wires_, target);
  const auto entry = fmcf_.find(stripped.core);
  if (!entry.has_value()) return std::nullopt;
  CatalogAnswer answer;
  answer.cost = entry->cost;
  answer.frontier_index = entry->frontier_index;
  answer.not_prefix = std::move(stripped.not_prefix);
  return answer;
}

gates::Cascade CatalogServer::cached_witness(unsigned cost,
                                             std::size_t row) const {
  if (options_.witness_cache_capacity == 0) {
    return fmcf_.witness_for_row(cost, row);
  }
  const std::uint64_t key = witness_key(cost, row);
  {
    // Both counters tick while the shared lock is held (atomics, since many
    // shared holders run concurrently), so cache_stats() can exclude every
    // in-flight update by taking the lock exclusively and read one
    // consistent snapshot.
    std::shared_lock lock(cache_mutex_);
    const auto it = witness_cache_.find(key);
    if (it != witness_cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  // Back-walk outside any lock: reconstruction only reads immutable rep
  // tables. Concurrent misses on the same row redo the walk; the first
  // emplace wins and the duplicates are dropped, which is cheaper than
  // holding a lock across the walk.
  gates::Cascade cascade = fmcf_.witness_for_row(cost, row);
  std::unique_lock lock(cache_mutex_);
  if (witness_cache_.size() < options_.witness_cache_capacity) {
    witness_cache_.emplace(key, cascade);
  }
  return cascade;
}

std::optional<SynthesisResult> CatalogServer::synthesize(
    const perm::Permutation& target) const {
  const NotStripped stripped = strip_not_prefix(wires_, target);
  const auto entry = fmcf_.find(stripped.core);
  if (!entry.has_value()) return fallback_synthesize(target);
  return assemble_result(
      wires_, stripped,
      entry->cost == 0 ? gates::Cascade(wires_)
                       : cached_witness(entry->cost, entry->frontier_index));
}

std::optional<WeightedCatalogAnswer> CatalogServer::locate_weighted(
    const perm::Permutation& target, const gates::CostModel& model,
    bool scan_deeper_levels) const {
  const NotStripped stripped = strip_not_prefix(wires_, target);
  const auto entry = fmcf_.find(stripped.core);
  if (!entry.has_value()) {
    // Beyond the stored levels: the fallback backend's witness is the one
    // candidate (one minimal-gate-count cascade, not a scan of alternatives).
    const auto result = fallback_synthesize(target);
    if (!result.has_value()) return std::nullopt;
    WeightedCatalogAnswer answer;
    answer.stopped = WeightedScanStop::kFallbackBackend;
    answer.gate_count = result->core.size();
    for (const gates::Gate& g : result->circuit.sequence()) {
      answer.model_cost += g.cost(model);
    }
    answer.circuit = result->circuit;
    return answer;
  }

  unsigned prefix_cost = 0;
  for (const gates::Gate& g : stripped.not_prefix) prefix_cost += g.cost(model);

  WeightedCatalogAnswer best;
  bool have_best = false;
  const auto consider = [&](const gates::Cascade& core) {
    unsigned cost = prefix_cost;
    for (const gates::Gate& g : core.sequence()) cost += g.cost(model);
    if (have_best && cost >= best.model_cost) return;
    have_best = true;
    best.model_cost = cost;
    best.gate_count = core.size();
    best.circuit = assemble_result(wires_, stripped, core).circuit;
  };

  if (entry->cost == 0) {
    consider(gates::Cascade(wires_));
    // The empty core is the global optimum: every alternative realization
    // adds gates of nonnegative cost to the same NOT prefix.
    best.stopped = WeightedScanStop::kExhausted;
    return best;
  }
  // Every stored realization of the core is a candidate: under non-uniform
  // costs the cheapest circuit need not be the shortest one, so the scan can
  // optionally continue past the minimal level into the deeper frontiers.
  const unsigned last =
      scan_deeper_levels ? fmcf_.levels_done() : entry->cost;
  for (unsigned k = entry->cost; k <= last; ++k) {
    for (const std::size_t row : fmcf_.implementations(stripped.core, k)) {
      consider(cached_witness(k, row));
    }
  }
  QSYN_CHECK(have_best, "a located core must have at least one witness row");
  if (!scan_deeper_levels) {
    best.stopped = WeightedScanStop::kMinimalLevelOnly;
  } else if (fmcf_.saturated()) {
    best.stopped = WeightedScanStop::kExhausted;
  } else {
    best.stopped = WeightedScanStop::kStoredDepthLimit;
  }
  return best;
}

std::vector<std::optional<SynthesisResult>> CatalogServer::synthesize_batch(
    const std::vector<perm::Permutation>& targets) const {
  std::vector<std::optional<SynthesisResult>> answers(targets.size());
  std::lock_guard guard(batch_mutex_);  // ThreadPool::run is not reentrant
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  pool_->run(targets.size(), [&](std::size_t i, std::size_t) {
    answers[i] = synthesize(targets[i]);
  });
  return answers;
}

CatalogServer::CacheStats CatalogServer::cache_stats() const {
  // Exclusive lock: counter updates happen under the shared lock, so this
  // snapshot sees hits + misses == completed lookups and an entry count from
  // the same instant — two independently-read counters could disagree with
  // each other and with the map.
  std::unique_lock lock(cache_mutex_);
  CacheStats stats;
  stats.hits = cache_hits_.load(std::memory_order_relaxed);
  stats.misses = cache_misses_.load(std::memory_order_relaxed);
  stats.entries = witness_cache_.size();
  return stats;
}

}  // namespace qsyn::synth
