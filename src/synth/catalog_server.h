// qsyn/synth/catalog_server.h
//
// Concurrent serving front end over one FMCF closure — typically a catalog
// reopened read-only from disk (synth/catalog.h), where every level's
// canonical rows are an mmap'd window and queries touch pages on demand.
//
// The split from McExpressor: the expressor *builds* (it deepens the closure
// on a miss), the server *answers*. A server never mutates its enumerator, so
// single locate()/synthesize() calls are lock-free reads of immutable tables
// and may run from any number of threads; synthesize_batch() fans a whole
// query vector out over the server's own worker pool. The only shared
// mutable state is the witness cache (reconstructed cascades are the one
// non-trivial per-query cost), a bounded map behind a reader/writer lock.
// Circuits are put together by assemble_result (synth/backend.h), so a
// stored answer is byte-identical to McExpressor's over the same closure.
//
// Serving is backend-agnostic at the edges: as_backend() adapts the server
// onto the SynthesisBackend seam, and set_fallback() plugs any other backend
// (typically a TopologySearchBackend) in behind the catalog — targets beyond
// the stored levels are then answered by the fallback instead of a miss.
// Fallback calls serialize on a mutex (backends deepen and keep per-query
// state); catalog hits never touch it, so the lock-free hit path is intact.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "gates/gate.h"
#include "perm/permutation.h"
#include "synth/backend.h"
#include "synth/fmcf.h"

namespace qsyn {
class ThreadPool;
}

namespace qsyn::synth {

struct CatalogServerOptions {
  /// Worker threads for the batch entry points (0 = QSYN_THREADS /
  /// hardware_concurrency, like ClosureConfig::threads). Single queries
  /// never touch the pool.
  std::size_t threads = 0;

  /// Maximum cached witness cascades (0 disables caching). The cache stops
  /// admitting new entries at capacity — catalog query mixes are heavily
  /// skewed toward a few popular targets, so keep-first is a good fit and
  /// needs no eviction bookkeeping on the hot path.
  std::size_t witness_cache_capacity = std::size_t(1) << 16;
};

/// A locate() answer: where the target's core lives in the catalog.
struct CatalogAnswer {
  unsigned cost = 0;               // minimal library-gate count of the core
  // The witness row of B[cost], as an orbit-order index (FmcfEnumerator's
  // row handle: reps of R[cost] in memcmp order, each rep's conjugates in
  // orbit order). The witness cache keys on (cost, frontier_index).
  std::size_t frontier_index = 0;
  std::vector<gates::Gate> not_prefix;  // Theorem 2's cost-0 NOT layer
};

/// Why a weighted scan returned the answer it did — i.e. how strong the
/// "cheapest" claim is. Anything but kExhausted means a cheaper realization
/// could exist outside what was scanned.
enum class WeightedScanStop : std::uint8_t {
  /// Only the core's minimal level was scanned (scan_deeper_levels off);
  /// deeper stored levels might hold a cheaper cascade under this model.
  kMinimalLevelOnly,
  /// Every stored level was scanned, but the closure was cut off by its
  /// enumeration budget (cb) before saturating — cascades beyond the stored
  /// depth exist and were never enumerated.
  kStoredDepthLimit,
  /// Every stored level was scanned and the closure is saturated: no deeper
  /// reasonable cascade exists, the answer is the global optimum.
  kExhausted,
  /// The core was beyond the stored levels; the answer is the fallback
  /// backend's single witness, not a scan over stored implementations.
  kFallbackBackend,
};

/// A weighted locate() answer: the cheapest stored realization under an
/// arbitrary cost model.
struct WeightedCatalogAnswer {
  gates::Cascade circuit;     // NOT prefix + core cascade
  unsigned model_cost = 0;    // total cost under the query's model
  std::size_t gate_count = 0;  // library gates in the core
  /// Why the scan stopped where it did (see WeightedScanStop).
  WeightedScanStop stopped = WeightedScanStop::kMinimalLevelOnly;

  WeightedCatalogAnswer() : circuit(2) {}
};

/// Read-only concurrent query server over a (usually catalog-backed) FMCF
/// closure.
class CatalogServer {
 public:
  /// Takes ownership of the enumerator. Works for both catalog-backed and
  /// freshly computed closures; either way the closure is served as-is and
  /// never deepened.
  explicit CatalogServer(FmcfEnumerator enumerator,
                         CatalogServerOptions options = {});
  ~CatalogServer();

  /// Convenience: FmcfEnumerator::open_catalog + construction.
  [[nodiscard]] static CatalogServer open(const std::string& path,
                                          const gates::GateLibrary& library,
                                          CatalogServerOptions options = {});

  [[nodiscard]] const FmcfEnumerator& enumerator() const { return fmcf_; }

  /// Plugs a backend in behind the catalog: synthesize() and
  /// locate_weighted() answer catalog misses through it instead of returning
  /// nullopt (locate() stays catalog-only — its answer is a storage
  /// location). The backend must serve the same library (its
  /// GateLibrary::fingerprint must match; throws qsyn::LogicError). Fallback
  /// queries serialize on an internal mutex; pass nullptr to unplug.
  void set_fallback(std::shared_ptr<SynthesisBackend> fallback);
  [[nodiscard]] bool has_fallback() const;

  /// Adapts this server onto the SynthesisBackend seam. The adapter serves
  /// stored answers — plus the fallback, when one is set — and never deepens
  /// the closure; its max_cost() is the stored depth or the fallback's
  /// ceiling, whichever is higher. It references the server: the server must
  /// outlive it.
  [[nodiscard]] std::unique_ptr<SynthesisBackend> as_backend();

  /// Minimal cost + witness location of `target` (a permutation of {1..2^n}
  /// in binary-value order), or nullopt when the target's core is beyond the
  /// stored levels. Never consults the fallback (the answer is a catalog
  /// location). Lock-free; safe from any thread.
  [[nodiscard]] std::optional<CatalogAnswer> locate(
      const perm::Permutation& target) const;

  /// Full minimal realization (witness back-walk, cached). On a catalog miss
  /// the fallback backend answers when one is set. Thread-safe; the
  /// catalog-hit path is lock-free.
  [[nodiscard]] std::optional<SynthesisResult> synthesize(
      const perm::Permutation& target) const;

  /// The cheapest stored realization of `target` under `model`, searching
  /// every implementation row of the core's minimal level — and, when
  /// `scan_deeper_levels` is set, every deeper stored level too (a deeper
  /// cascade can be cheaper under non-uniform costs, e.g. more CNOTs and
  /// fewer controlled-V). The answer's `stopped` field says how far the scan
  /// actually got (minimal level only / stored-depth budget / exhausted
  /// saturated closure), i.e. whether "cheapest stored" is "cheapest
  /// possible". When the core is beyond the stored levels the fallback
  /// backend answers if set (stopped = kFallbackBackend), else nullopt.
  [[nodiscard]] std::optional<WeightedCatalogAnswer> locate_weighted(
      const perm::Permutation& target, const gates::CostModel& model,
      bool scan_deeper_levels = false) const;

  /// Batched synthesize(): one answer per target, in order, fanned out over
  /// the server's worker pool. Batches from different threads serialize on
  /// the pool (single-query calls keep running concurrently alongside).
  [[nodiscard]] std::vector<std::optional<SynthesisResult>> synthesize_batch(
      const std::vector<perm::Permutation>& targets) const;

  /// One consistent snapshot of the witness cache (taken under the cache
  /// lock): hits + misses equals the lookups completed at the instant of the
  /// snapshot, and entries is the map size at that same instant.
  struct CacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const;

 private:
  friend class CatalogBackend;

  [[nodiscard]] gates::Cascade cached_witness(unsigned cost,
                                              std::size_t row) const;
  /// Serialized fallback call; nullopt when no fallback is set or it misses.
  [[nodiscard]] std::optional<SynthesisResult> fallback_synthesize(
      const perm::Permutation& target) const;

  FmcfEnumerator fmcf_;
  CatalogServerOptions options_;
  std::size_t wires_;

  // Miss-path backend (set_fallback). Mutable + mutex: backends are stateful
  // (a search backend accumulates stats, a closure backend may deepen), so
  // const serving entry points serialize their fallback calls here.
  mutable std::mutex fallback_mutex_;
  std::shared_ptr<SynthesisBackend> fallback_;

  // The server owns its pool: the enumerator's lazily created sweep pool is
  // never touched (ThreadPool::run is not reentrant, and a catalog-backed
  // enumerator keeps no pool at all, so its witness back-walks stay serial
  // and safely concurrent). Created lazily by the first batch call.
  mutable std::mutex batch_mutex_;
  mutable std::unique_ptr<ThreadPool> pool_;

  mutable std::shared_mutex cache_mutex_;
  mutable std::unordered_map<std::uint64_t, gates::Cascade> witness_cache_;
  mutable std::atomic<std::size_t> cache_hits_{0};
  mutable std::atomic<std::size_t> cache_misses_{0};
};

}  // namespace qsyn::synth
