#include "sim/fused.h"

#include <utility>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "sim/state_vector.h"
#include "sim/unitary.h"

namespace qsyn::sim {

std::size_t SimOptions::resolved_threads() const {
  return threads >= 1 ? threads : ThreadPool::default_thread_count();
}

std::size_t UnitaryCache::KeyHash::operator()(const Key& key) const {
  // FNV-1a over the wire count and the packed gate words.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t value) {
    h ^= value;
    h *= 1099511628211ULL;
  };
  mix(key.wires);
  for (const std::uint32_t g : key.gates) mix(g);
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const la::Matrix> UnitaryCache::fold(std::size_t wires,
                                                     const gates::Gate* gates,
                                                     std::size_t count) {
  QSYN_CHECK(count >= 1, "cannot fold an empty block");
  Key key;
  key.wires = wires;
  key.gates.reserve(count);
  for (std::size_t g = 0; g < count; ++g) {
    key.gates.push_back(gates[g].packed());
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = blocks_.find(key);
    if (it != blocks_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Fold outside the lock: blocks are small but concurrent misses on
  // *different* blocks should not serialize. A racing duplicate fold of the
  // same block is harmless — emplace keeps the first published result.
  auto folded =
      std::make_shared<const la::Matrix>(gates_unitary(wires, gates, count));
  if (fold_hook_) fold_hook_();
  const std::size_t dim = std::size_t(1) << wires;
  const std::size_t folded_bytes = dim * dim * sizeof(la::Complex);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blocks_.find(key);
  if (it != blocks_.end()) {
    // Lost a duplicate-fold race: the full fold work was done, so count a
    // miss (plus duplicate_folds), not a hit — otherwise serving hit-rates
    // inflate by exactly the contended folds.
    ++misses_;
    ++duplicate_folds_;
    return it->second;
  }
  ++misses_;
  if (bytes_ + folded_bytes > max_bytes_) {
    return folded;  // full: hand the fold back uncached
  }
  bytes_ += folded_bytes;
  return blocks_.emplace(std::move(key), std::move(folded)).first->second;
}

std::size_t UnitaryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_.size();
}

std::size_t UnitaryCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

UnitaryCache::Stats UnitaryCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.duplicate_folds = duplicate_folds_;
  stats.entries = blocks_.size();
  stats.bytes = bytes_;
  return stats;
}

std::size_t UnitaryCache::hits() const { return stats().hits; }

std::size_t UnitaryCache::misses() const { return stats().misses; }

FusedCascade::FusedCascade(const gates::Cascade& cascade,
                           std::size_t fuse_block, UnitaryCache& cache)
    : wires_(cascade.wires()) {
  QSYN_CHECK(fuse_block >= 1, "fuse_block must be at least 1");
  const std::vector<gates::Gate>& gates = cascade.sequence();
  blocks_.reserve((gates.size() + fuse_block - 1) / fuse_block);
  for (std::size_t start = 0; start < gates.size(); start += fuse_block) {
    const std::size_t count = std::min(fuse_block, gates.size() - start);
    blocks_.push_back(cache.fold(wires_, gates.data() + start, count));
  }
}

const la::Matrix& FusedCascade::block(std::size_t i) const {
  QSYN_CHECK(i < blocks_.size(), "block index out of range");
  return *blocks_[i];
}

std::shared_ptr<const la::Matrix> FusedCascade::block_matrix(
    std::size_t i) const {
  QSYN_CHECK(i < blocks_.size(), "block index out of range");
  return blocks_[i];
}

void FusedCascade::apply(StateVector& state) const {
  QSYN_CHECK(state.wires() == wires_, "cascade wire count mismatch");
  for (const auto& block : blocks_) state.apply_unitary(*block);
}

StateVector FusedCascade::apply_to_basis(std::uint32_t bits) const {
  const std::size_t dim = std::size_t(1) << wires_;
  QSYN_CHECK(bits < dim, "basis state out of range");
  if (blocks_.empty()) return StateVector::basis(wires_, bits);
  // Block 0 acts on a basis state: its output is column `bits`.
  const la::Matrix& first = *blocks_[0];
  la::Vector amps(dim);
  for (std::size_t i = 0; i < dim; ++i) amps[i] = first(i, bits);
  StateVector state = StateVector::from_amplitudes(std::move(amps));
  for (std::size_t b = 1; b < blocks_.size(); ++b) {
    state.apply_unitary(*blocks_[b]);
  }
  return state;
}

std::vector<StateVector> FusedCascade::apply_to_basis_columns(
    const std::vector<std::uint32_t>& bits) const {
  const std::size_t dim = std::size_t(1) << wires_;
  const std::size_t batch = bits.size();
  std::vector<StateVector> out;
  out.reserve(batch);
  // With one input, or no block past block 0 (a column read either way),
  // the batch would only add a transpose round-trip.
  if (batch < 2 || blocks_.size() < 2) {
    for (const std::uint32_t b : bits) out.push_back(apply_to_basis(b));
    return out;
  }
  for (const std::uint32_t b : bits) {
    QSYN_CHECK(b < dim, "basis state out of range");
  }
  // Column j of the working matrix is job j's state. Block 0 acts on basis
  // columns, so its application is a gather of unitary columns; every
  // further block is one dim x dim x batch product.
  std::vector<la::Complex> cur(dim * batch);
  std::vector<la::Complex> next(dim * batch);
  const la::Matrix& first = *blocks_[0];
  for (std::size_t j = 0; j < batch; ++j) {
    for (std::size_t i = 0; i < dim; ++i) {
      cur[i * batch + j] = first(i, bits[j]);
    }
  }
  for (std::size_t b = 1; b < blocks_.size(); ++b) {
    simd::gemm(blocks_[b]->data().data(), cur.data(), next.data(), dim, dim,
               batch);
    cur.swap(next);
  }
  for (std::size_t j = 0; j < batch; ++j) {
    la::Vector amps(dim);
    for (std::size_t i = 0; i < dim; ++i) amps[i] = cur[i * batch + j];
    out.push_back(StateVector::from_amplitudes(std::move(amps)));
  }
  return out;
}

la::Matrix FusedCascade::unitary() const {
  la::Matrix u = la::Matrix::identity(std::size_t(1) << wires_);
  for (const auto& block : blocks_) u = *block * u;
  return u;
}

}  // namespace qsyn::sim
