#include "synth/search/topology_search.h"

#include <cstring>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/error.h"

namespace qsyn::synth {

std::size_t TopologySearchBackend::StateKeyHash::operator()(
    const StateKey& key) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const std::uint64_t word : key) {
    std::uint64_t x = word + h;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    h = x ^ (x >> 31);
  }
  return static_cast<std::size_t>(h);
}

/// Per-walk scratch, reset by each deepening iteration. The state stack holds
/// limit+1 image tables in one buffer; chosen gates are kept per depth.
struct TopologySearchBackend::Run {
  unsigned limit = 0;
  std::vector<std::uint16_t> states;  // (limit + 1) x binary_count
  std::vector<std::size_t> path;      // gate chosen at each depth
  std::vector<std::uint8_t> encoded;  // one encoded row (scratch)
  VisitedSet memo;

  Run(std::size_t binary_count, std::size_t label_range,
      std::size_t memo_budget)
      : memo(binary_count, label_range, memo_budget) {}
};

TopologySearchBackend::TopologySearchBackend(const gates::GateLibrary& library,
                                             SearchConfig config)
    : library_(&library),
      config_(config),
      wires_(library.domain().wires()),
      width_(library.domain().size()),
      binary_count_(library.domain().binary_count()),
      label_bytes_(width_ <= 256 ? 1 : 2) {
  QSYN_CHECK(wires_ <= 5,
             "topology search supports up to 5 wires (leaf keys pack 2^n "
             "domain labels into 512 bits)");
  const std::size_t gates = library.size();
  gate_commutes_.assign(gates * gates, 1);
  for (std::size_t a = 0; a < gates; ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      // Two gates commute iff their domain permutations do.
      const std::uint16_t* ta = library.table(a);
      const std::uint16_t* tb = library.table(b);
      std::size_t l = 0;
      while (l < width_ && ta[tb[l]] == tb[ta[l]]) ++l;
      gate_commutes_[a * gates + b] = gate_commutes_[b * gates + a] =
          l == width_ ? 1 : 0;
    }
  }
}

void TopologySearchBackend::encode_state(const std::uint16_t* state,
                                         std::uint8_t* out) const {
  for (std::size_t s = 0; s < binary_count_; ++s) {
    FlatPermStore::write_label(out, s, label_bytes_, state[s]);
  }
}

TopologySearchBackend::StateKey TopologySearchBackend::key_of(
    const std::uint8_t* encoded) const {
  StateKey key{};
  std::memcpy(key.data(), encoded, binary_count_ * label_bytes_);
  return key;
}

template <typename Visit>
bool TopologySearchBackend::dfs(Run& run, unsigned depth,
                                std::size_t last_gate, const Visit& visit) {
  const gates::GateLibrary& library = *library_;
  const std::size_t gates = library.size();
  const std::uint16_t* state = run.states.data() + depth * binary_count_;
  const std::uint32_t banned = library.domain().banned_of(state);
  // A restricted library may lack last_gate's adjoint: then this is `gates`
  // and no pair cancels.
  const std::size_t adjoint =
      depth > 0 ? library.adjoint_index(last_gate) : gates;
  ++stats_.nodes;
  for (std::size_t g = 0; g < gates; ++g) {
    if (config_.use_banned_sets && (banned & library.class_bit(g)) != 0) {
      ++stats_.pruned_banned;
      continue;
    }
    if (depth > 0) {
      if (config_.prune_adjoint_pairs && g == adjoint) {
        ++stats_.pruned_adjoint;  // the pair cancels: never minimal
        continue;
      }
      // Keep only the ascending order of a commuting pair: the swapped
      // order reaches the same state and is reasonable too. For commuting
      // gates g and h, h allowed at a label x and g allowed at h(x) imply
      // g allowed at x and h allowed at g(x) (tests/test_search.cpp checks
      // this label by label), and a prefix's banned mask is the OR over
      // its binary images.
      if (config_.prune_commuting_pairs && g < last_gate &&
          gate_commutes_[g * gates + last_gate] != 0) {
        ++stats_.pruned_commuting;
        continue;
      }
    }
    std::uint16_t* next = run.states.data() + (depth + 1) * binary_count_;
    const std::uint16_t* table = library.table(g);
    for (std::size_t s = 0; s < binary_count_; ++s) {
      next[s] = table[state[s]];
    }
    run.path[depth] = g;
    if (depth + 1 == run.limit) {
      ++stats_.leaves;
      if (visit(next, run.path)) return true;
      continue;
    }
    encode_state(next, run.encoded.data());
    if (!run.memo.admit(run.encoded.data(), depth + 1)) {
      ++stats_.pruned_visited;
      continue;
    }
    if (dfs(run, depth + 1, g, visit)) return true;
  }
  return false;
}

template <typename Visit>
bool TopologySearchBackend::deepen(const Visit& visit) {
  Run run(binary_count_, width_, config_.visited_budget_bytes);
  run.encoded.resize(binary_count_ * label_bytes_);
  // Row 0 of the state stack is the identity for every iteration: resizing
  // the stack keeps it.
  run.states.resize(binary_count_);
  std::iota(run.states.begin(), run.states.end(), std::uint16_t{0});
  ++stats_.leaves;
  if (visit(run.states.data(), run.path)) return true;
  for (unsigned limit = 1; limit <= config_.max_cost; ++limit) {
    run.limit = limit;
    run.states.resize(static_cast<std::size_t>(limit + 1) * binary_count_);
    run.path.assign(limit, 0);
    run.memo.clear();
    encode_state(run.states.data(), run.encoded.data());
    (void)run.memo.admit(run.encoded.data(), 0);  // identity prefixes recur
    if (limit > stats_.deepest_iteration) stats_.deepest_iteration = limit;
    const bool stopped = dfs(run, 0, 0, visit);
    if (run.memo.rows() > stats_.peak_memo_rows) {
      stats_.peak_memo_rows = run.memo.rows();
    }
    if (stopped) return true;
  }
  return false;
}

gates::Cascade TopologySearchBackend::cascade_of(
    const std::vector<std::size_t>& path) const {
  gates::Cascade cascade(wires_);
  for (const std::size_t g : path) cascade.append(library_->gate(g));
  return cascade;
}

std::vector<std::optional<SynthesisResult>>
TopologySearchBackend::synthesize_batch(
    const std::vector<perm::Permutation>& targets) {
  std::vector<std::optional<SynthesisResult>> answers(targets.size());
  std::vector<NotStripped> stripped(targets.size());
  // Open targets: encoded core state -> slots in the batch. A leaf that
  // matches answers its slots (the first hit is minimal: every shallower
  // iteration completed without one) and leaves the map.
  std::unordered_map<StateKey, std::vector<std::size_t>, StateKeyHash> pending;
  std::vector<std::uint8_t> encoded(binary_count_ * label_bytes_);
  std::vector<std::uint16_t> goal(binary_count_);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    stripped[i] = strip_not_prefix(wires_, targets[i]);
    // Key the core by its 0-based image row over the binary labels — the
    // exact state a matching leaf carries.
    for (std::size_t s = 0; s < binary_count_; ++s) {
      goal[s] = static_cast<std::uint16_t>(
          stripped[i].core.apply(static_cast<std::uint32_t>(s) + 1) - 1);
    }
    encode_state(goal.data(), encoded.data());
    pending[key_of(encoded.data())].push_back(i);
  }
  if (pending.empty()) return answers;

  (void)deepen([&](const std::uint16_t* images,
                   const std::vector<std::size_t>& path) {
    encode_state(images, encoded.data());
    const auto hit = pending.find(key_of(encoded.data()));
    if (hit == pending.end()) return false;
    for (const std::size_t slot : hit->second) {
      answers[slot] = assemble_result(wires_, stripped[slot], cascade_of(path));
    }
    pending.erase(hit);
    return pending.empty();
  });
  return answers;
}

std::optional<gates::Cascade> TopologySearchBackend::first_cascade(
    const LeafTest& accept) {
  std::optional<gates::Cascade> found;
  (void)deepen([&](const std::uint16_t* images,
                   const std::vector<std::size_t>& path) {
    if (!accept(images)) return false;
    found = cascade_of(path);
    return true;
  });
  return found;
}

std::optional<SynthesisResult> TopologySearchBackend::synthesize(
    const perm::Permutation& target) {
  return synthesize_batch({target}).front();
}

}  // namespace qsyn::synth
