// qsyn/synth/backend.h
//
// SynthesisBackend — the one polymorphic seam over every synthesis engine.
//
// A backend answers "give me one minimal-quantum-cost cascade of this
// reversible circuit" over one gate library, and callers pick the engine by
// construction, not by type:
//
//   * McExpressor (synth/mce.h) — the paper's MCE algorithm over the
//     exhaustive breadth-first FMCF closure. Fastest per query once the
//     levels are computed (and instant over a persistent catalog), but
//     memory-bound in the level width: the 5-wire closure needs gigabytes
//     past k = 3.
//   * TopologySearchBackend (synth/search/topology_search.h) — a DFS with
//     pruning over gate cascades in the spirit of percy's fence enumeration.
//     Stores almost nothing, so it reaches costs/widths the closure cannot
//     hold, at the price of searching per query.
//   * CatalogServer::as_backend() (synth/catalog_server.h) — stored-answer
//     serving over a reopened catalog, optionally falling back to another
//     backend on a miss.
//
// All three answer through Theorem 2's coset trick: the target is split into
// a cost-0 NOT prefix and a core permutation fixing the all-zero pattern
// (strip_not_prefix), only the core is searched or located, and the answer
// is put together by assemble_result — so equal pieces give byte-identical
// circuits on every engine.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "gates/cascade.h"
#include "gates/library.h"
#include "perm/permutation.h"

namespace qsyn::synth {

/// One synthesized realization of a reversible circuit.
struct SynthesisResult {
  /// The complete circuit: NOT prefix followed by the library cascade.
  gates::Cascade circuit;
  /// d[0]: the NOT gates (possibly empty).
  std::vector<gates::Gate> not_prefix;
  /// d[1..t]: the controlled-V / controlled-V+ / Feynman part.
  gates::Cascade core;
  /// t — the minimal number of 2-qubit library gates (NOTs are free).
  unsigned cost = 0;

  SynthesisResult() : circuit(2), core(2) {}
};

/// Theorem 2's coset decomposition of a target: a cost-0 NOT prefix plus a
/// core permutation fixing the all-zero pattern (a member of the paper's G).
struct NotStripped {
  std::vector<gates::Gate> not_prefix;
  perm::Permutation core;  // fixes label 1
};

/// Strips the NOT coset off `target` (a permutation of {1..2^n} in
/// binary-value order; smaller degrees are padded with fixed points).
[[nodiscard]] NotStripped strip_not_prefix(std::size_t wires,
                                           const perm::Permutation& target);

/// Assembles a SynthesisResult from Theorem 2's pieces: the cost-0 NOT
/// prefix and a core cascade of library gates.
[[nodiscard]] SynthesisResult assemble_result(std::size_t wires,
                                              const NotStripped& stripped,
                                              gates::Cascade core);

/// Polymorphic synthesis engine: minimal-quantum-cost realization of
/// reversible circuits (permutations of {1..2^n} in binary-value order) over
/// one gate library.
class SynthesisBackend {
 public:
  virtual ~SynthesisBackend();

  SynthesisBackend() = default;
  SynthesisBackend(const SynthesisBackend&) = delete;
  SynthesisBackend& operator=(const SynthesisBackend&) = delete;

  /// The library the backend synthesizes over.
  [[nodiscard]] virtual const gates::GateLibrary& library() const = 0;

  /// Cost ceiling: targets whose minimal cost exceeds this return nullopt.
  [[nodiscard]] virtual unsigned max_cost() const = 0;

  /// One minimal realization, or nullopt beyond max_cost.
  [[nodiscard]] virtual std::optional<SynthesisResult> synthesize(
      const perm::Permutation& target) = 0;

  /// Batched synthesize: one answer per target, in order. The default loops
  /// over synthesize(); engines override when a batch can share work (the
  /// DFS backend answers a whole batch from one deepening sweep).
  [[nodiscard]] virtual std::vector<std::optional<SynthesisResult>>
  synthesize_batch(const std::vector<perm::Permutation>& targets);
};

}  // namespace qsyn::synth
