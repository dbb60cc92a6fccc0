// qsyn/sim/state_vector.h
//
// A small state-vector quantum simulator: the Hilbert-space ground truth
// against which the paper's multi-valued abstraction is validated, and the
// measurement backend for the Section-4 probabilistic machines.
//
// Wire order convention: wire 0 (qubit A) is the most significant bit of the
// basis-state index, matching the pattern ordering of mvl::Pattern.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gates/cascade.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "mvl/pattern.h"

namespace qsyn::sim {

/// The quantum state of n qubits (2^n complex amplitudes).
class StateVector {
 public:
  /// |0...0> on `wires` qubits.
  explicit StateVector(std::size_t wires);

  /// Computational basis state |bits> (wire 0 = most significant bit).
  static StateVector basis(std::size_t wires, std::uint32_t bits);

  /// Product state carrying the quaternary value of each pattern wire
  /// (0 -> |0>, 1 -> |1>, V0 -> V|0>, V1 -> V|1>).
  static StateVector from_pattern(const mvl::Pattern& pattern);

  /// Adopts an explicit amplitude vector; the dimension must be a power of
  /// two (>= 2). Normalization is the caller's concern — the fused engine
  /// feeds unitary columns through here, which are normalized already.
  static StateVector from_amplitudes(la::Vector amplitudes);

  [[nodiscard]] std::size_t wires() const { return wires_; }
  [[nodiscard]] std::size_t dimension() const { return amps_.size(); }
  [[nodiscard]] const la::Vector& amplitudes() const { return amps_; }

  /// Applies a single-qubit unitary (2x2) to `wire`.
  void apply_1q(const la::Matrix& u, std::size_t wire);

  /// Applies a controlled single-qubit unitary: u on `target` when `control`
  /// is |1>. Throws qsyn::LogicError when `control == target` (a controlled
  /// gate needs two distinct wires; silently accepting the alias would
  /// produce garbage amplitudes).
  void apply_controlled_1q(const la::Matrix& u, std::size_t target,
                           std::size_t control);

  /// Applies a full-dimension (2^wires x 2^wires) unitary to the state.
  void apply_unitary(const la::Matrix& u);

  /// Applies one library gate (controlled-V/V+/Feynman/NOT).
  void apply_gate(const gates::Gate& gate);

  /// Applies a whole cascade, one gate at a time — the oracle the fused
  /// engine (sim/fused.h) is differentially tested against.
  void apply_cascade(const gates::Cascade& cascade);

  /// Probability that measuring all qubits yields |bits>.
  [[nodiscard]] double probability_of(std::uint32_t bits) const;

  /// Probability that measuring `wire` yields |1>.
  [[nodiscard]] double probability_one(std::size_t wire) const;

  /// Full measurement distribution over the 2^n basis states.
  [[nodiscard]] std::vector<double> distribution() const;

  /// Samples a full measurement (collapsing is the caller's concern; this
  /// just draws from distribution()).
  [[nodiscard]] std::uint32_t sample(Rng& rng) const;

  /// Measures all qubits: samples an outcome and collapses to that basis
  /// state. Returns the outcome bits.
  std::uint32_t measure_all(Rng& rng);

  /// L2 distance to another state (for tests).
  [[nodiscard]] double distance_to(const StateVector& other) const;

  /// True iff equal to `other` up to a global phase.
  [[nodiscard]] bool equal_up_to_phase(
      const StateVector& other, double tol = la::kDefaultTolerance) const;

 private:
  std::size_t wires_;
  la::Vector amps_;
};

}  // namespace qsyn::sim
