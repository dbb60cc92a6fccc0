#include "synth/mce.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/thread_pool.h"

namespace qsyn::synth {

namespace {

ClosureConfig with_witnesses(ClosureConfig config) {
  config.track_witnesses = true;  // MCE reconstructs cascades
  return config;
}

}  // namespace

McExpressor::McExpressor(const gates::GateLibrary& library, unsigned max_cost,
                         ClosureConfig config)
    : max_cost_(max_cost),
      fmcf_(library, with_witnesses(config)) {}

McExpressor::McExpressor(FmcfEnumerator enumerator, unsigned max_cost)
    : max_cost_(max_cost != 0 ? max_cost : enumerator.levels_done()),
      fmcf_(std::move(enumerator)) {}

std::optional<GEntry> McExpressor::locate(const perm::Permutation& core) {
  auto entry = fmcf_.find(core);
  // Stop at saturation: once the closure exhausts the reachable group below
  // max_cost, the target is simply not realizable over this library
  // (advance() would otherwise no-op forever). Catalog-backed closures are
  // frozen at their saved depth: a miss there is a miss, never a deepening.
  while (!entry.has_value() && fmcf_.levels_done() < max_cost_ &&
         !fmcf_.saturated() && !fmcf_.read_only()) {
    fmcf_.advance();
    entry = fmcf_.find(core);
  }
  return entry;
}

std::optional<SynthesisResult> McExpressor::synthesize(
    const perm::Permutation& target) {
  const std::size_t wires = library().domain().wires();
  const NotStripped stripped = strip_not_prefix(wires, target);
  if (stripped.core.is_identity()) {
    return assemble_result(wires, stripped, gates::Cascade(wires));
  }
  const auto entry = locate(stripped.core);
  if (!entry.has_value()) return std::nullopt;
  return assemble_result(wires, stripped, fmcf_.witness(*entry));
}

std::vector<SynthesisResult> McExpressor::implementations(
    const perm::Permutation& target) {
  const std::size_t wires = library().domain().wires();
  const NotStripped stripped = strip_not_prefix(wires, target);
  std::vector<SynthesisResult> out;
  if (stripped.core.is_identity()) {
    out.push_back(assemble_result(wires, stripped, gates::Cascade(wires)));
    return out;
  }
  const auto entry = locate(stripped.core);
  if (!entry.has_value()) return out;
  for (const std::size_t row :
       fmcf_.implementations(stripped.core, entry->cost)) {
    out.push_back(assemble_result(wires, stripped,
                                  fmcf_.witness_for_row(entry->cost, row)));
  }
  return out;
}

std::optional<unsigned> McExpressor::minimal_cost(
    const perm::Permutation& target) {
  const NotStripped stripped =
      strip_not_prefix(library().domain().wires(), target);
  if (stripped.core.is_identity()) return 0;
  const auto entry = locate(stripped.core);
  if (!entry.has_value()) return std::nullopt;
  return entry->cost;
}

std::size_t McExpressor::count_sequences(const perm::Permutation& target,
                                         unsigned cost) {
  QSYN_CHECK(cost >= 1 && cost <= max_cost_,
             "count_sequences supports cost 1..max_cost()");
  const gates::GateLibrary& library = this->library();
  const mvl::PatternDomain& domain = library.domain();
  const NotStripped stripped = strip_not_prefix(domain.wires(), target);
  const std::size_t width = domain.size();
  const std::size_t binary_count = domain.binary_count();

  // Label tables mirroring the enumerator's hot path (16-bit labels cover
  // every supported domain width, including the 782-label 5-wire domain).
  std::vector<const perm::Permutation*> perms;
  std::vector<std::uint32_t> class_bits;
  for (std::size_t g = 0; g < library.size(); ++g) {
    perms.push_back(&library.permutation(g));
    class_bits.push_back(1u << library.banned_class_of(g));
  }

  std::vector<std::uint16_t> state(width);
  for (std::size_t s = 0; s < width; ++s) {
    state[s] = static_cast<std::uint16_t>(s);
  }

  auto matches_target = [&](const std::uint16_t* row) {
    for (std::size_t s = 0; s < binary_count; ++s) {
      if (static_cast<std::uint32_t>(row[s]) + 1 !=
          stripped.core.apply(static_cast<std::uint32_t>(s + 1))) {
        return false;
      }
    }
    return true;
  };

  const auto banned_of = [&](const std::uint16_t* row) {
    std::uint32_t banned = 0;
    for (std::size_t s = 0; s < binary_count; ++s) {
      banned |= domain.banned_mask(row[s] + 1);
    }
    return banned;
  };

  // Depth-first walk over reasonable gate sequences of exactly `remaining`
  // more gates starting from `start` (a width-byte label image table).
  // Allocates its own scratch, so concurrent invocations are independent;
  // everything captured is read-only.
  const auto dfs_count = [&](const std::uint16_t* start,
                             unsigned remaining) -> std::size_t {
    std::size_t count = 0;
    std::vector<std::uint16_t> scratch((remaining + 1) * width);
    std::copy(start, start + width, scratch.begin());
    // Recursive walk via explicit stack of gate choices.
    struct Frame {
      std::size_t next_gate = 0;
    };
    std::vector<Frame> stack(1);
    while (!stack.empty()) {
      const std::size_t depth = stack.size() - 1;
      const std::uint16_t* current = scratch.data() + depth * width;
      if (depth == remaining) {
        if (matches_target(current)) ++count;
        stack.pop_back();
        continue;
      }
      const std::uint32_t banned = banned_of(current);
      bool descended = false;
      for (std::size_t g = stack.back().next_gate; g < perms.size(); ++g) {
        if ((banned & class_bits[g]) != 0) continue;
        stack.back().next_gate = g + 1;
        std::uint16_t* next = scratch.data() + (depth + 1) * width;
        const perm::Permutation& p = *perms[g];
        for (std::size_t s = 0; s < width; ++s) {
          next[s] = static_cast<std::uint16_t>(p.apply(current[s] + 1) - 1);
        }
        stack.emplace_back();
        descended = true;
        break;
      }
      if (!descended) stack.pop_back();
    }
    return count;
  };

  // Shallow searches (or a single worker) run the plain serial walk.
  const std::size_t threads = fmcf_.threads();
  constexpr unsigned kPrefixDepth = 2;
  if (threads <= 1 || cost <= kPrefixDepth) {
    return dfs_count(state.data(), cost);
  }

  // Parallel fan-out: enumerate every reasonable prefix of exactly
  // kPrefixDepth gates, then count each prefix's subtree as one pool task.
  // The tasks partition the serial DFS tree, so the summed count is
  // thread-count invariant by construction.
  std::vector<std::vector<std::uint16_t>> prefixes;
  std::vector<std::uint16_t> state1(width);
  std::vector<std::uint16_t> state2(width);
  const std::uint32_t banned0 = banned_of(state.data());
  for (std::size_t g1 = 0; g1 < perms.size(); ++g1) {
    if ((banned0 & class_bits[g1]) != 0) continue;
    for (std::size_t s = 0; s < width; ++s) {
      state1[s] =
          static_cast<std::uint16_t>(perms[g1]->apply(state[s] + 1) - 1);
    }
    const std::uint32_t banned1 = banned_of(state1.data());
    for (std::size_t g2 = 0; g2 < perms.size(); ++g2) {
      if ((banned1 & class_bits[g2]) != 0) continue;
      for (std::size_t s = 0; s < width; ++s) {
        state2[s] =
            static_cast<std::uint16_t>(perms[g2]->apply(state1[s] + 1) - 1);
      }
      prefixes.push_back(state2);
    }
  }
  std::vector<std::size_t> counts(prefixes.size(), 0);
  fmcf_.worker_pool().run(prefixes.size(), [&](std::size_t task, std::size_t) {
    counts[task] = dfs_count(prefixes[task].data(), cost - kPrefixDepth);
  });
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

}  // namespace qsyn::synth
