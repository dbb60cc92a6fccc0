#include "synth/search/topology_search.h"

#include <cstring>
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

/// Per-sweep scratch. The state stack holds limit+1 image tables in one
/// buffer; banned masks and chosen gates are kept per depth so the commuting
/// canonical-order check can consult the parent without recomputing.
struct TopologySearchBackend::Run {
  unsigned limit = 0;
  std::vector<std::uint16_t> states;   // (limit + 1) x binary_count
  std::vector<std::uint32_t> banned;   // per depth
  std::vector<std::size_t> path;       // gate chosen at each depth
  std::vector<std::uint8_t> encoded;   // one encoded row (scratch)
  std::vector<std::uint16_t> swapped;  // commuting-check scratch state
  VisitedSet memo;
  // Open targets: encoded core state -> slots in the batch. Resolved slots
  // record their witness path in `found` and leave the map.
  std::unordered_map<StateKey, std::vector<std::size_t>, StateKeyHash> pending;
  std::vector<std::vector<std::size_t>>* found = nullptr;  // per batch slot

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
  const mvl::PatternDomain& domain = library.domain();
  const std::size_t gates = library.size();

  gate_tables_.resize(gates);
  gate_class_bits_.resize(gates);
  gate_adjoint_.resize(gates);
  for (std::size_t g = 0; g < gates; ++g) {
    const perm::Permutation& p = library.permutation(g);
    auto& table = gate_tables_[g];
    table.resize(width_);
    for (std::size_t l = 0; l < width_; ++l) {
      table[l] = static_cast<std::uint16_t>(
          p.apply(static_cast<std::uint32_t>(l) + 1) - 1);
    }
    gate_class_bits_[g] = 1u << library.banned_class_of(g);
    gate_adjoint_[g] = library.adjoint_index(g);
  }
  gate_commutes_.assign(gates * gates, 0);
  for (std::size_t a = 0; a < gates; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      const std::uint8_t c = library.commutes(a, b) ? 1 : 0;
      gate_commutes_[a * gates + b] = c;
      gate_commutes_[b * gates + a] = c;
    }
  }
  label_banned_.resize(width_);
  for (std::size_t l = 0; l < width_; ++l) {
    label_banned_[l] = domain.banned_mask(static_cast<std::uint32_t>(l) + 1);
  }
}

std::uint32_t TopologySearchBackend::banned_of(
    const std::uint16_t* state) const {
  std::uint32_t banned = 0;
  for (std::size_t s = 0; s < binary_count_; ++s) {
    banned |= label_banned_[state[s]];
  }
  return banned;
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

bool TopologySearchBackend::dfs(Run& run, unsigned depth,
                                std::size_t last_gate) {
  const std::size_t gates = gate_tables_.size();
  const std::uint16_t* state = run.states.data() + depth * binary_count_;
  const std::uint32_t banned = run.banned[depth];
  ++stats_.nodes;
  for (std::size_t g = 0; g < gates; ++g) {
    if (config_.use_banned_sets && (banned & gate_class_bits_[g]) != 0) {
      ++stats_.pruned_banned;
      continue;
    }
    if (depth > 0) {
      if (config_.prune_adjoint_pairs && g == gate_adjoint_[last_gate]) {
        ++stats_.pruned_adjoint;  // the pair cancels: never minimal
        continue;
      }
      if (config_.prune_commuting_pairs && g < last_gate &&
          gate_commutes_[g * gates + last_gate] != 0) {
        // Keep only the ascending order of the commuting pair — but only
        // when the swap is itself a reasonable product, else this order is
        // the lone representative. The swapped prefix needs g admissible at
        // the parent and last_gate admissible after it.
        const std::uint32_t parent_banned = run.banned[depth - 1];
        if (!config_.use_banned_sets ||
            (parent_banned & gate_class_bits_[g]) == 0) {
          const std::uint16_t* parent =
              run.states.data() + (depth - 1) * binary_count_;
          const auto& table = gate_tables_[g];
          for (std::size_t s = 0; s < binary_count_; ++s) {
            run.swapped[s] = table[parent[s]];
          }
          if (!config_.use_banned_sets ||
              (banned_of(run.swapped.data()) & gate_class_bits_[last_gate]) ==
                  0) {
            ++stats_.pruned_commuting;
            continue;
          }
        }
      }
    }
    std::uint16_t* next = run.states.data() + (depth + 1) * binary_count_;
    const auto& table = gate_tables_[g];
    for (std::size_t s = 0; s < binary_count_; ++s) {
      next[s] = table[state[s]];
    }
    if (depth + 1 == run.limit) {
      ++stats_.leaves;
      encode_state(next, run.encoded.data());
      const auto hit = run.pending.find(key_of(run.encoded.data()));
      if (hit != run.pending.end()) {
        run.path[depth] = g;
        for (const std::size_t slot : hit->second) {
          (*run.found)[slot].assign(run.path.begin(),
                                    run.path.begin() + run.limit);
        }
        run.pending.erase(hit);
        if (run.pending.empty()) return true;
      }
      continue;
    }
    run.banned[depth + 1] = banned_of(next);
    encode_state(next, run.encoded.data());
    if (!run.memo.admit(run.encoded.data(), depth + 1)) {
      ++stats_.pruned_visited;
      continue;
    }
    run.path[depth] = g;
    if (dfs(run, depth + 1, g)) return true;
  }
  return false;
}

std::vector<std::optional<SynthesisResult>>
TopologySearchBackend::synthesize_batch(
    const std::vector<perm::Permutation>& targets) {
  std::vector<std::optional<SynthesisResult>> answers(targets.size());
  std::vector<NotStripped> stripped(targets.size());

  Run run(binary_count_, width_, config_.visited_budget_bytes);
  std::vector<std::vector<std::size_t>> found(targets.size());
  run.found = &found;
  run.encoded.resize(binary_count_ * label_bytes_);
  run.swapped.resize(binary_count_);

  for (std::size_t i = 0; i < targets.size(); ++i) {
    stripped[i] = strip_not_prefix(wires_, targets[i]);
    if (stripped[i].core.is_identity()) {
      answers[i] = assemble_result(wires_, stripped[i], gates::Cascade(wires_));
      continue;
    }
    // Key the core by its 0-based image row over the binary labels — the
    // exact state a matching leaf carries.
    std::vector<std::uint16_t> goal(binary_count_);
    for (std::size_t s = 0; s < binary_count_; ++s) {
      goal[s] = static_cast<std::uint16_t>(
          stripped[i].core.apply(static_cast<std::uint32_t>(s) + 1) - 1);
    }
    encode_state(goal.data(), run.encoded.data());
    run.pending[key_of(run.encoded.data())].push_back(i);
  }

  for (unsigned limit = 1;
       limit <= config_.max_cost && !run.pending.empty(); ++limit) {
    run.limit = limit;
    run.states.assign(static_cast<std::size_t>(limit + 1) * binary_count_, 0);
    run.banned.assign(limit + 1, 0);
    run.path.assign(limit, 0);
    for (std::size_t s = 0; s < binary_count_; ++s) {
      run.states[s] = static_cast<std::uint16_t>(s);
    }
    run.banned[0] = banned_of(run.states.data());
    run.memo.clear();
    encode_state(run.states.data(), run.encoded.data());
    (void)run.memo.admit(run.encoded.data(), 0);  // identity prefixes recur
    if (limit > stats_.deepest_iteration) stats_.deepest_iteration = limit;
    (void)dfs(run, 0, 0);
    if (run.memo.rows() > stats_.peak_memo_rows) {
      stats_.peak_memo_rows = run.memo.rows();
    }
    // Assemble every target resolved in this iteration: its witness path is
    // a minimal cascade (all shallower iterations completed without a hit).
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (answers[i].has_value() || found[i].empty()) continue;
      gates::Cascade core(wires_);
      for (const std::size_t g : found[i]) core.append(library_->gate(g));
      answers[i] = assemble_result(wires_, stripped[i], std::move(core));
    }
  }
  return answers;
}

std::optional<SynthesisResult> TopologySearchBackend::synthesize(
    const perm::Permutation& target) {
  return synthesize_batch({target}).front();
}

}  // namespace qsyn::synth
