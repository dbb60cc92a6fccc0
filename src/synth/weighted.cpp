#include "synth/weighted.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "common/error.h"
#include "mvl/pattern.h"

namespace qsyn::synth {

namespace {

/// Packs the 2^n image codes (2n bits each) into a 64-bit signature.
/// n = 3: 8 images x 6 bits = 48 bits. n = 4 would need 16 x 8 = 128, so the
/// synthesizer is limited to n <= 3 (checked in the constructor).
std::uint64_t pack(const std::vector<std::uint8_t>& images, unsigned bits) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    key |= static_cast<std::uint64_t>(images[i]) << (bits * i);
  }
  return key;
}

void unpack(std::uint64_t key, unsigned bits, std::vector<std::uint8_t>& out) {
  const std::uint64_t mask = (1u << bits) - 1u;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((key >> (bits * i)) & mask);
  }
}

}  // namespace

WeightedSynthesizer::WeightedSynthesizer(const gates::GateLibrary& library,
                                         gates::CostModel model,
                                         bool include_not_gates,
                                         std::size_t max_states)
    : library_(&library),
      model_(model),
      max_states_(max_states),
      wires_(library.domain().wires()) {
  QSYN_CHECK(wires_ <= 3, "weighted synthesis supports up to 3 wires");
  const std::size_t code_count = std::size_t(1) << (2 * wires_);

  // Banned mask per full-domain pattern code (mirrors the reduced domain's
  // class numbering; the mask depends only on which wires are mixed).
  const mvl::PatternDomain& domain = library.domain();
  code_banned_.resize(code_count);
  for (std::uint32_t code = 0; code < code_count; ++code) {
    const mvl::Pattern p = mvl::Pattern::from_code(wires_, code);
    std::uint32_t mask = 0;
    for (std::size_t w = 0; w < wires_; ++w) {
      if (mvl::is_mixed(p.get(w))) mask |= 1u << domain.control_class(w);
    }
    for (std::size_t a = 0; a < wires_; ++a) {
      for (std::size_t b = a + 1; b < wires_; ++b) {
        if (mvl::is_mixed(p.get(a)) || mvl::is_mixed(p.get(b))) {
          mask |= 1u << domain.feynman_class(a, b);
        }
      }
    }
    code_banned_[code] = mask;
  }

  auto add_move = [&](const gates::Gate& g, std::uint32_t class_bit) {
    Move move{g, g.cost(model_), class_bit, {}};
    move.table.resize(code_count);
    for (std::uint32_t code = 0; code < code_count; ++code) {
      move.table[code] = static_cast<std::uint8_t>(
          g.apply(mvl::Pattern::from_code(wires_, code)).code());
    }
    moves_.push_back(std::move(move));
  };

  for (std::size_t i = 0; i < library.size(); ++i) {
    add_move(library.gate(i), 1u << library.banned_class_of(i));
  }
  if (include_not_gates) {
    for (std::size_t w = 0; w < wires_; ++w) {
      add_move(gates::Gate::not_gate(w), 0u);
    }
  }
}

void WeightedSynthesizer::set_bound_backend(SynthesisBackend* backend) {
  QSYN_CHECK(backend == nullptr ||
                 backend->library().fingerprint() == library_->fingerprint(),
             "bound backend serves a different library");
  bound_backend_ = backend;
}

std::optional<WeightedResult> WeightedSynthesizer::run(
    const perm::Permutation& target, bool build_witness) const {
  const std::uint32_t binary_count = 1u << wires_;
  const unsigned bits = static_cast<unsigned>(2 * wires_);
  QSYN_CHECK(target.degree() <= binary_count,
             "target permutation degree exceeds 2^wires");

  // Upper bound from the seam: the bound backend's minimal-gate-count
  // witness, priced under this model. Any state costing more than the bound
  // cannot lie on an optimal path (move costs are nonnegative), so Dijkstra
  // skips it — shrinking `best` on targets that would otherwise trip
  // max_states.
  unsigned bound = 0;
  bool have_bound = false;
  if (bound_backend_ != nullptr) {
    if (auto witness = bound_backend_->synthesize(target);
        witness.has_value()) {
      for (const gates::Gate& g : witness->circuit.sequence()) {
        bound += g.cost(model_);
      }
      have_bound = true;
    }
  }

  // Start: binary input i carries the pattern with code of its own bits.
  std::vector<std::uint8_t> images(binary_count);
  for (std::uint32_t i = 0; i < binary_count; ++i) {
    images[i] =
        static_cast<std::uint8_t>(mvl::Pattern::from_binary(wires_, i).code());
  }
  const std::uint64_t start = pack(images, bits);

  // Goal: image of input i is the binary pattern target(i+1)-1.
  for (std::uint32_t i = 0; i < binary_count; ++i) {
    images[i] = static_cast<std::uint8_t>(
        mvl::Pattern::from_binary(wires_, target.apply(i + 1) - 1).code());
  }
  const std::uint64_t goal = pack(images, bits);

  struct QueueEntry {
    unsigned cost;
    std::uint64_t key;
    bool operator>(const QueueEntry& other) const {
      return cost > other.cost;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  std::unordered_map<std::uint64_t, unsigned> best;
  // Parent tracking for witness reconstruction.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::size_t>>
      parent;

  queue.push({0, start});
  best.emplace(start, 0);
  std::vector<std::uint8_t> current(binary_count);
  std::vector<std::uint8_t> next(binary_count);

  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    const auto it = best.find(top.key);
    if (it != best.end() && it->second < top.cost) continue;  // stale
    if (top.key == goal) {
      WeightedResult result;
      result.cost = top.cost;
      result.circuit = gates::Cascade(wires_);
      if (build_witness) {
        std::vector<std::size_t> chosen;
        std::uint64_t key = goal;
        while (key != start) {
          const auto p = parent.find(key);
          QSYN_CHECK(p != parent.end(), "broken Dijkstra parent chain");
          chosen.push_back(p->second.second);
          key = p->second.first;
        }
        std::reverse(chosen.begin(), chosen.end());
        for (const std::size_t m : chosen) {
          result.circuit.append(moves_[m].gate);
        }
      }
      return result;
    }
    unpack(top.key, bits, current);
    std::uint32_t banned = 0;
    for (const std::uint8_t code : current) banned |= code_banned_[code];
    for (std::size_t m = 0; m < moves_.size(); ++m) {
      const Move& move = moves_[m];
      if ((banned & move.class_bit) != 0) continue;
      for (std::size_t i = 0; i < current.size(); ++i) {
        next[i] = move.table[current[i]];
      }
      const std::uint64_t next_key = pack(next, bits);
      const unsigned next_cost = top.cost + move.cost;
      if (have_bound && next_cost > bound) continue;
      const auto found = best.find(next_key);
      if (found != best.end() && found->second <= next_cost) continue;
      if (found == best.end() && best.size() >= max_states_) {
        throw qsyn::SynthesisError(
            "weighted synthesis exceeded the state bound");
      }
      best[next_key] = next_cost;
      if (build_witness) parent[next_key] = {top.key, m};
      queue.push({next_cost, next_key});
    }
  }
  return std::nullopt;
}

std::optional<WeightedResult> WeightedSynthesizer::synthesize(
    const perm::Permutation& target) const {
  return run(target, /*build_witness=*/true);
}

std::optional<unsigned> WeightedSynthesizer::minimal_cost(
    const perm::Permutation& target) const {
  const auto result = run(target, /*build_witness=*/false);
  if (!result.has_value()) return std::nullopt;
  return result->cost;
}

}  // namespace qsyn::synth
