#include "sim/batch.h"

#include <optional>
#include <unordered_map>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/state_vector.h"

namespace qsyn::sim {

BatchSimulator::BatchSimulator(SimOptions options)
    : options_(options), threads_(options.resolved_threads()) {
  QSYN_CHECK(options_.fuse_block >= 1, "fuse_block must be at least 1");
}

BatchSimulator::~BatchSimulator() = default;

ThreadPool& BatchSimulator::pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

la::Vector BatchSimulator::simulate(const gates::Cascade& cascade,
                                    std::uint32_t bits) {
  const FusedCascade fused(cascade, options_.fuse_block, cache_);
  return fused.apply_to_basis(bits).amplitudes();
}

std::vector<la::Vector> BatchSimulator::run(const std::vector<SimJob>& jobs) {
  std::vector<la::Vector> out(jobs.size());
  if (jobs.empty()) return out;
  for (const SimJob& job : jobs) {
    QSYN_CHECK(job.cascade != nullptr, "SimJob without a cascade");
  }
  if (jobs.size() == 1) {  // nothing to fan out; skip the pool round
    out[0] = simulate(*jobs[0].cascade, jobs[0].input_bits);
    return out;
  }
  // Fold each distinct cascade exactly once — across the pool, since on a
  // cold cache folding dominates the per-job column reads — then fan the
  // groups out. The fused forms are read-only during the sweep, so tasks
  // share them freely.
  std::unordered_map<const gates::Cascade*, std::size_t> fused_index;
  std::vector<const gates::Cascade*> unique;
  for (const SimJob& job : jobs) {
    if (fused_index.emplace(job.cascade, unique.size()).second) {
      unique.push_back(job.cascade);
    }
  }
  std::vector<std::optional<FusedCascade>> fused(unique.size());
  pool().run(unique.size(), [&](std::size_t task, std::size_t) {
    fused[task].emplace(*unique[task], options_.fuse_block, cache_);
  });
  // One task per distinct cascade: its jobs' inputs go through
  // apply_to_basis_columns together, which batches them into matrix-matrix
  // products when there is something to multiply.
  std::vector<std::vector<std::size_t>> members(unique.size());
  for (std::size_t task = 0; task < jobs.size(); ++task) {
    members[fused_index.at(jobs[task].cascade)].push_back(task);
  }
  pool().run(unique.size(), [&](std::size_t group, std::size_t) {
    std::vector<std::uint32_t> bits;
    bits.reserve(members[group].size());
    for (const std::size_t task : members[group]) {
      bits.push_back(jobs[task].input_bits);
    }
    std::vector<StateVector> states =
        fused[group]->apply_to_basis_columns(bits);
    for (std::size_t m = 0; m < members[group].size(); ++m) {
      out[members[group][m]] = states[m].amplitudes();
    }
  });
  return out;
}

std::vector<char> BatchSimulator::check_mv_model(
    const std::vector<const gates::Cascade*>& cascades,
    const mvl::PatternDomain& domain, double tol) {
  std::vector<char> out(cascades.size(), 0);
  if (cascades.empty()) return out;
  for (const gates::Cascade* cascade : cascades) {
    QSYN_CHECK(cascade != nullptr, "check_mv_model without a cascade");
  }
  if (cascades.size() == 1) {
    out[0] = check_mv_model_one(*cascades[0], domain, tol) ? 1 : 0;
    return out;
  }
  pool().run(cascades.size(), [&](std::size_t task, std::size_t) {
    out[task] = check_mv_model_one(*cascades[task], domain, tol) ? 1 : 0;
  });
  return out;
}

bool BatchSimulator::check_mv_model_one(const gates::Cascade& cascade,
                                        const mvl::PatternDomain& domain,
                                        double tol) {
  if (domain.wires() != cascade.wires()) return false;
  const std::size_t wires = cascade.wires();
  const FusedCascade fused(cascade, options_.fuse_block, cache_);
  // All 2^n inputs in one batch: the whole soundness sweep becomes a
  // handful of dim x dim x dim products.
  const std::size_t dim = std::size_t(1) << wires;
  std::vector<std::uint32_t> all_bits(dim);
  for (std::uint32_t bits = 0; bits < dim; ++bits) all_bits[bits] = bits;
  const std::vector<StateVector> states =
      fused.apply_to_basis_columns(all_bits);
  for (std::uint32_t bits = 0; bits < dim; ++bits) {
    const mvl::Pattern predicted =
        cascade.apply(mvl::Pattern::from_binary(wires, bits));
    const StateVector expected = StateVector::from_pattern(predicted);
    if (states[bits].distance_to(expected) > tol) return false;
  }
  return true;
}

}  // namespace qsyn::sim
