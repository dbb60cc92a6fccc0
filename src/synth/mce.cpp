#include "synth/mce.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/error.h"

namespace qsyn::synth {

namespace {

ClosureConfig with_witnesses(ClosureConfig config) {
  config.track_witnesses = true;  // MCE reconstructs cascades
  return config;
}

// The reasonable gate sequences of exactly `remaining` more gates that take
// the binary images `state` to `goal`, in a depth-first walk whose deeper
// rows follow `state` in one buffer.
std::size_t count_from(const gates::GateLibrary& library,
                       std::uint16_t* state, unsigned remaining,
                       const std::uint16_t* goal) {
  const mvl::PatternDomain& domain = library.domain();
  const std::size_t binary_count = domain.binary_count();
  const std::uint32_t banned = domain.banned_of(state);
  std::uint16_t* next = state + binary_count;
  std::size_t count = 0;
  for (std::size_t g = 0; g < library.size(); ++g) {
    if ((banned & library.class_bit(g)) != 0) continue;
    const std::uint16_t* table = library.table(g);
    for (std::size_t s = 0; s < binary_count; ++s) next[s] = table[state[s]];
    if (remaining > 1) {
      count += count_from(library, next, remaining - 1, goal);
    } else if (std::equal(next, next + binary_count, goal)) {
      ++count;
    }
  }
  return count;
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
  const mvl::PatternDomain& domain = library().domain();
  const NotStripped stripped = strip_not_prefix(domain.wires(), target);
  // The banned test and the target test read only the images of the binary
  // labels, so the walk carries those: one row of 2^n 0-based labels per
  // depth, row 0 the identity.
  const std::size_t binary_count = domain.binary_count();
  std::vector<std::uint16_t> goal(binary_count);
  for (std::size_t s = 0; s < binary_count; ++s) {
    goal[s] = static_cast<std::uint16_t>(
        stripped.core.apply(static_cast<std::uint32_t>(s + 1)) - 1);
  }
  std::vector<std::uint16_t> states((cost + 1) * binary_count);
  std::iota(states.begin(), states.begin() + binary_count, std::uint16_t{0});
  return count_from(library(), states.data(), cost, goal.data());
}

}  // namespace qsyn::synth
