// qsyn/synth/mce.h
//
// The paper's Minimum_Cost_Expressing (MCE) algorithm: given a reversible
// circuit g (a permutation of the 2^n binary patterns), produce a minimal
// quantum-cost cascade d[0]*d[1]*...*d[t] with d[0] a NOT-gate layer and
// d[1..t] library gates (Theorem 3).
//
// The NOT layer comes from Theorem 2: H = ∪_{a∈N} a*G decomposes every
// reversible circuit into a (cost-0) NOT prefix a = d[0] and a member of G,
// which the FMCF closure then locates level by level; the witness cascade is
// reconstructed by the paper's back-walk over the B[j] frontiers.
//
// McExpressor is the closure engine behind the SynthesisBackend seam
// (synth/backend.h). Closure-only queries that the seam does not carry —
// implementations(), count_sequences(), minimal_cost() and the enumerator —
// are members of the concrete class.
#pragma once

#include <optional>
#include <vector>

#include "gates/library.h"
#include "perm/permutation.h"
#include "synth/backend.h"
#include "synth/fmcf.h"

namespace qsyn::synth {

/// Minimum-cost expressing over one gate library. Reuses one FMCF closure
/// across calls, deepening it on demand up to `max_cost` (the paper's cb).
class McExpressor final : public SynthesisBackend {
 public:
  /// `config` configures the underlying closure (thread count, witness
  /// tracking, chunking, spill budget — see synth/closure_config.h); witness
  /// tracking is always forced on, since MCE exists to reconstruct cascades.
  explicit McExpressor(const gates::GateLibrary& library, unsigned max_cost = 7,
                       ClosureConfig config = {});

  /// Wraps an existing enumerator — typically one reopened from a persistent
  /// catalog — without recomputing anything. `max_cost` 0 means "whatever the
  /// enumerator already holds" (levels_done()); read-only enumerators are
  /// never deepened regardless, so lookups beyond the stored levels simply
  /// return nullopt instead of re-running the sweep.
  explicit McExpressor(FmcfEnumerator enumerator, unsigned max_cost = 0);

  /// Synthesizes a minimal realization, or nullopt when the minimal cost
  /// exceeds max_cost (the paper's flag = 0 case). The target permutation
  /// acts on {1..2^n} in binary-value order (label 1 = |0..0>); smaller
  /// degrees are padded with fixed points.
  [[nodiscard]] std::optional<SynthesisResult> synthesize(
      const perm::Permutation& target) override;

  /// All distinct minimal implementations, one per closure element of B[t]
  /// restricting to the target (this is the multiplicity the paper reports:
  /// 2 implementations of Peres, 4 of Toffoli). Empty when cost > max_cost.
  [[nodiscard]] std::vector<SynthesisResult> implementations(
      const perm::Permutation& target);

  /// Exhaustively counts the *gate sequences* of length exactly `cost` that
  /// realize the target (reasonable cascades only; NOT prefix excluded).
  /// Exponential in `cost`; guarded to cost <= max_cost(). One serial DFS
  /// over the images of the 2^n binary labels (all the banned sets and the
  /// target test read), on the library's gate tables; the closure's thread
  /// count plays no part.
  [[nodiscard]] std::size_t count_sequences(const perm::Permutation& target,
                                            unsigned cost);

  /// Minimal quantum cost of the target, or nullopt when above max_cost.
  [[nodiscard]] std::optional<unsigned> minimal_cost(
      const perm::Permutation& target);

  [[nodiscard]] const gates::GateLibrary& library() const override {
    return fmcf_.library();
  }
  [[nodiscard]] unsigned max_cost() const override { return max_cost_; }
  [[nodiscard]] const FmcfEnumerator& enumerator() const { return fmcf_; }

 private:
  [[nodiscard]] std::optional<GEntry> locate(const perm::Permutation& core);

  unsigned max_cost_;
  FmcfEnumerator fmcf_;
};

}  // namespace qsyn::synth
