// qsyn/sim/batch.h
//
// Many-circuits-per-call simulation serving. A BatchSimulator evaluates
// whole batches of (cascade, input-pattern) jobs per call: every distinct
// cascade in the batch is folded once through the fused engine (sim/fused.h,
// block unitaries shared via one content-addressed cache), the jobs fan out
// across a common/thread_pool worker pool, and each cascade's inputs go
// through FusedCascade::apply_to_basis_columns together.
//
// This is the engine behind sim/cross_check.h's soundness sweeps; the knobs
// live in SimOptions (fuse_block >= 1, threads; env: QSYN_THREADS). The
// gate-at-a-time oracle its verdicts are diffed against is
// sim::mv_model_matches_hilbert_reference.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gates/cascade.h"
#include "la/vector.h"
#include "mvl/domain.h"
#include "sim/fused.h"

namespace qsyn {
class ThreadPool;
}

namespace qsyn::sim {

/// One simulation request: a cascade evaluated on one binary basis input.
/// The cascade must outlive the BatchSimulator call.
struct SimJob {
  const gates::Cascade* cascade = nullptr;
  std::uint32_t input_bits = 0;
};

/// Batched, fused, multi-threaded cascade evaluator.
class BatchSimulator {
 public:
  /// Throws qsyn::LogicError when options.fuse_block is 0.
  explicit BatchSimulator(SimOptions options = {});
  ~BatchSimulator();

  BatchSimulator(const BatchSimulator&) = delete;
  BatchSimulator& operator=(const BatchSimulator&) = delete;

  [[nodiscard]] const SimOptions& options() const { return options_; }

  /// Resolved fan-out parallelism (>= 1).
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// The shared block-unitary cache (persists across calls, so repeated
  /// circuits — the serving steady state — skip folding entirely).
  [[nodiscard]] UnitaryCache& cache() { return cache_; }

  /// Evaluates every job; result i holds job i's output amplitudes. Jobs
  /// may mix cascades of different wire counts. Single-job batches run
  /// inline — no pool round — so per-step callers (the automata measurement
  /// unit) pay nothing for the fan-out machinery.
  [[nodiscard]] std::vector<la::Vector> run(const std::vector<SimJob>& jobs);

  /// Batched soundness sweep (the paper's claim behind sim/cross_check.h):
  /// entry i is 1 iff cascade i's Hilbert-space output equals the
  /// multi-valued model's predicted product state on every binary input.
  /// Cascades fan out across the pool; each is folded at most once.
  [[nodiscard]] std::vector<char> check_mv_model(
      const std::vector<const gates::Cascade*>& cascades,
      const mvl::PatternDomain& domain, double tol = 1e-9);

  /// Single-cascade variant of check_mv_model (no fan-out; reuses the
  /// cache, so sweeping a catalog one call at a time still folds once).
  [[nodiscard]] bool check_mv_model_one(const gates::Cascade& cascade,
                                        const mvl::PatternDomain& domain,
                                        double tol = 1e-9);

 private:
  /// Output amplitudes of one (cascade, input) pair.
  [[nodiscard]] la::Vector simulate(const gates::Cascade& cascade,
                                    std::uint32_t bits);
  [[nodiscard]] ThreadPool& pool();

  SimOptions options_;
  std::size_t threads_;
  UnitaryCache cache_;
  // Created lazily on the first multi-job fan-out, under pool_mutex_. Note
  // ThreadPool::run itself is not reentrant: concurrent multi-job batches
  // on one shared engine fail loudly rather than race.
  std::mutex pool_mutex_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace qsyn::sim
