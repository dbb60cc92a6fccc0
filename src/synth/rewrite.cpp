#include "synth/rewrite.h"

#include <vector>

#include "common/error.h"
#include "mvl/pattern.h"

namespace qsyn::synth {

namespace {

/// Applies a gate sequence to every full-domain pattern; returns the image
/// table indexed by pattern code.
std::vector<std::uint32_t> action_table(const std::vector<gates::Gate>& seq,
                                        std::size_t wires) {
  const std::uint32_t count = 1u << (2 * wires);
  std::vector<std::uint32_t> table(count);
  for (std::uint32_t code = 0; code < count; ++code) {
    mvl::Pattern p = mvl::Pattern::from_code(wires, code);
    for (const gates::Gate& g : seq) p = g.apply(p);
    table[code] = p.code();
  }
  return table;
}

/// True iff g1 then g2 equals g2 then g1 on the full pattern space.
bool commute_impl(const gates::Gate& a, const gates::Gate& b,
                  std::size_t wires) {
  const std::uint32_t count = 1u << (2 * wires);
  for (std::uint32_t code = 0; code < count; ++code) {
    const mvl::Pattern p = mvl::Pattern::from_code(wires, code);
    if (b.apply(a.apply(p)) != a.apply(b.apply(p))) return false;
  }
  return true;
}

/// True iff b undoes a on every full-domain pattern (adjacent cancellation).
bool inverse_pair(const gates::Gate& a, const gates::Gate& b,
                  std::size_t wires) {
  if (b != a.adjoint()) return false;
  const std::uint32_t count = 1u << (2 * wires);
  for (std::uint32_t code = 0; code < count; ++code) {
    const mvl::Pattern p = mvl::Pattern::from_code(wires, code);
    if (b.apply(a.apply(p)) != p) return false;
  }
  return true;
}

bool is_controlled(const gates::Gate& g) {
  return g.kind() == gates::GateKind::kCtrlV ||
         g.kind() == gates::GateKind::kCtrlVdag;
}

/// R1 with lookahead: cancels seq[i] against a later inverse seq[j] when
/// seq[i] commutes with everything in between (so the pair is adjacent in
/// some reordering). True if anything changed.
bool cancel_pass(std::vector<gates::Gate>& seq, std::size_t wires) {
  for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
    for (std::size_t j = i + 1; j < seq.size(); ++j) {
      if (inverse_pair(seq[i], seq[j], wires)) {
        seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(j));
        seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
      if (!commute_impl(seq[i], seq[j], wires)) break;
    }
  }
  return false;
}

/// R2 with lookahead: merges three equal controlled-V (or V+) gates that are
/// mutually reachable through commuting gates into the single adjoint gate.
bool triple_pass(std::vector<gates::Gate>& seq, std::size_t wires) {
  for (std::size_t i = 0; i + 2 < seq.size(); ++i) {
    if (!is_controlled(seq[i])) continue;
    std::vector<std::size_t> occurrences = {i};
    for (std::size_t j = i + 1; j < seq.size(); ++j) {
      if (seq[j] == seq[i]) {
        occurrences.push_back(j);
        if (occurrences.size() == 3) break;
      } else if (!commute_impl(seq[i], seq[j], wires)) {
        break;
      }
    }
    if (occurrences.size() < 3) continue;
    const gates::Gate merged = seq[i].adjoint();
    // Erase back to front so earlier indices stay valid.
    seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(occurrences[2]));
    seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(occurrences[1]));
    seq[i] = merged;
    return true;
  }
  return false;
}

/// R3: one bubble pass moving commuting adjacent gates into name order;
/// true if any swap happened.
bool sort_pass(std::vector<gates::Gate>& seq, std::size_t wires) {
  bool swapped = false;
  for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
    if (seq[i + 1].name() < seq[i].name() &&
        commute_impl(seq[i], seq[i + 1], wires)) {
      std::swap(seq[i], seq[i + 1]);
      swapped = true;
    }
  }
  return swapped;
}

}  // namespace

bool gates_commute(const gates::Gate& a, const gates::Gate& b,
                   std::size_t wires) {
  QSYN_CHECK(wires >= 1 && wires <= 8, "unsupported wire count");
  return commute_impl(a, b, wires);
}

bool same_full_semantics(const gates::Cascade& a, const gates::Cascade& b) {
  if (a.wires() != b.wires()) return false;
  return action_table(a.sequence(), a.wires()) ==
         action_table(b.sequence(), b.wires());
}

gates::Cascade simplify(const gates::Cascade& cascade) {
  const std::size_t wires = cascade.wires();
  std::vector<gates::Gate> seq = cascade.sequence();
  // Shrink (R1/R2, both with commuting lookahead) to a fixpoint, then
  // canonicalize the order (R3), then shrink once more in case the new
  // adjacencies compose (each shrink shortens the sequence, so this halts).
  while (cancel_pass(seq, wires) || triple_pass(seq, wires)) {
  }
  while (sort_pass(seq, wires)) {
  }
  while (cancel_pass(seq, wires) || triple_pass(seq, wires)) {
  }
  gates::Cascade out(wires);
  for (const gates::Gate& g : seq) out.append(g);
  QSYN_CHECK(same_full_semantics(cascade, out),
             "simplify produced a semantically different cascade");
  return out;
}

}  // namespace qsyn::synth
