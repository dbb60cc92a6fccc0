#include "sim/batch.h"

#include <optional>
#include <unordered_map>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/state_vector.h"

namespace qsyn::sim {

namespace {

/// Gate-at-a-time reference check, shared by the fuse_block == 0 path and
/// the classic sim/cross_check.cpp entry point. The caller has already
/// checked the domain/cascade wire agreement.
bool check_one_reference(const gates::Cascade& cascade, double tol) {
  const std::size_t wires = cascade.wires();
  for (std::uint32_t bits = 0; bits < (1u << wires); ++bits) {
    const mvl::Pattern input = mvl::Pattern::from_binary(wires, bits);
    StateVector state = StateVector::basis(wires, bits);
    state.apply_cascade(cascade);
    const mvl::Pattern predicted = cascade.apply(input);
    const StateVector expected = StateVector::from_pattern(predicted);
    if (state.distance_to(expected) > tol) return false;
  }
  return true;
}

}  // namespace

BatchSimulator::BatchSimulator(SimOptions options)
    : options_(options), threads_(options.resolved_threads()) {}

BatchSimulator::~BatchSimulator() = default;

ThreadPool& BatchSimulator::pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

la::Vector BatchSimulator::simulate(const gates::Cascade& cascade,
                                    std::uint32_t bits) {
  if (options_.fuse_block == 0) {
    StateVector state = StateVector::basis(cascade.wires(), bits);
    state.apply_cascade(cascade);
    return state.amplitudes();
  }
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
  if (options_.fuse_block == 0) {
    pool().run(jobs.size(), [&](std::size_t task, std::size_t) {
      const SimJob& job = jobs[task];
      StateVector state =
          StateVector::basis(job.cascade->wires(), job.input_bits);
      state.apply_cascade(*job.cascade);
      out[task] = state.amplitudes();
    });
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
  // GEMM-batched: jobs sharing a cascade assemble into one dense
  // 2^n x batch column matrix, and each fused block applies as a single
  // matrix-matrix product. One task per distinct cascade; the dyadic
  // amplitudes make the result bit-identical to per-job apply_to_basis.
  // Single-block cascades never reach a product (block 0 is a column
  // gather either way) and single-job groups degenerate to the same
  // matrix-vector work, so both take the per-job column path instead of
  // paying the assemble/unpack transpose for nothing.
  std::vector<std::vector<std::size_t>> members(unique.size());
  for (std::size_t task = 0; task < jobs.size(); ++task) {
    members[fused_index.at(jobs[task].cascade)].push_back(task);
  }
  pool().run(unique.size(), [&](std::size_t group, std::size_t) {
    if (fused[group]->block_count() < 2 || members[group].size() < 2) {
      for (const std::size_t task : members[group]) {
        out[task] =
            fused[group]->apply_to_basis(jobs[task].input_bits).amplitudes();
      }
      return;
    }
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

std::vector<la::Vector> BatchSimulator::run_all_inputs(
    const gates::Cascade& cascade) {
  const std::size_t dim = std::size_t(1) << cascade.wires();
  std::vector<SimJob> jobs(dim);
  for (std::uint32_t bits = 0; bits < dim; ++bits) {
    jobs[bits] = SimJob{&cascade, bits};
  }
  return run(jobs);
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
  if (options_.fuse_block == 0) {
    return check_one_reference(cascade, tol);
  }
  const std::size_t wires = cascade.wires();
  const FusedCascade fused(cascade, options_.fuse_block, cache_);
  // All 2^n inputs in one batch: the whole soundness sweep becomes a
  // handful of dim x dim x dim products. (Single-block cascades skip the
  // batch — block 0 is a column gather either way, so batching would only
  // add a transpose round-trip.)
  const std::size_t dim = std::size_t(1) << wires;
  std::vector<StateVector> states;
  if (fused.block_count() >= 2) {
    std::vector<std::uint32_t> all_bits(dim);
    for (std::uint32_t bits = 0; bits < dim; ++bits) all_bits[bits] = bits;
    states = fused.apply_to_basis_columns(all_bits);
  } else {
    states.reserve(dim);
    for (std::uint32_t bits = 0; bits < dim; ++bits) {
      states.push_back(fused.apply_to_basis(bits));
    }
  }
  for (std::uint32_t bits = 0; bits < dim; ++bits) {
    const mvl::Pattern predicted =
        cascade.apply(mvl::Pattern::from_binary(wires, bits));
    const StateVector expected = StateVector::from_pattern(predicted);
    if (states[bits].distance_to(expected) > tol) return false;
  }
  return true;
}

}  // namespace qsyn::sim
