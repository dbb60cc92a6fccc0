// qsyn/automata/automaton.h
//
// Quantum-realized probabilistic state machines (Figure 3 of the paper):
// a synthesized combinational quantum circuit, a measurement unit, and a
// state register closed in a loop. Each cycle the register bits (and
// optional external input bits) enter the circuit as pure binary values, the
// outputs are measured, and designated output wires are latched as the next
// state. Externally the machine is a probabilistic finite state machine.
//
// The induced Markov chain is computed *exactly* from the multi-valued
// model: each (state, input) pair yields a quaternary output pattern whose
// measurement distribution factorizes per wire. The linear-algebra substrate
// solves for the stationary distribution, and Monte-Carlo runs validate it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "gates/cascade.h"
#include "la/matrix.h"
#include "sim/fused.h"

namespace qsyn::automata {

/// How the measurement unit turns the circuit's action on a binary input
/// word into an outcome distribution.
enum class MeasurementBackend : std::uint8_t {
  /// The paper's exact product rule: run the multi-valued semantics and
  /// factorize the measurement per wire. Exact for reasonable cascades —
  /// the reference backend.
  kMultiValued,
  /// Full Hilbert-space simulation through the fused engine
  /// (sim/fused.h): |amplitude|^2 of the simulated output state. Agrees
  /// with kMultiValued on reasonable cascades and stays correct on
  /// arbitrary circuits beyond the paper's reasonability constraint.
  kHilbert,
};

/// A probabilistic FSM realized by a quantum combinational circuit.
///
/// Wire layout: the first `state_wires` wires carry the current state (and
/// their measured values become the next state); the remaining wires are
/// external inputs (re-armed with fresh input bits every cycle) whose
/// measured values are the machine's observable output.
class QuantumAutomaton {
 public:
  QuantumAutomaton(gates::Cascade circuit, std::size_t state_wires);

  [[nodiscard]] std::size_t state_wires() const { return state_wires_; }
  [[nodiscard]] std::size_t input_wires() const {
    return circuit_.wires() - state_wires_;
  }
  [[nodiscard]] std::size_t state_count() const {
    return std::size_t(1) << state_wires_;
  }
  [[nodiscard]] const gates::Cascade& circuit() const { return circuit_; }

  [[nodiscard]] std::uint32_t state() const { return state_; }
  void reset(std::uint32_t state = 0);

  /// Selects the measurement backend. kHilbert folds the circuit once
  /// (sim::kDefaultFuseBlock gates per block) and keeps the fold;
  /// kMultiValued releases it.
  void set_measurement_backend(MeasurementBackend backend);
  [[nodiscard]] MeasurementBackend measurement_backend() const {
    return backend_;
  }

  /// Runs one cycle with the given external input bits; returns the full
  /// measured output word (state bits high, output bits low).
  std::uint32_t step(std::uint32_t input_bits, Rng& rng);

  /// Exact joint distribution over measured output words for one
  /// (state, input) pair.
  [[nodiscard]] std::vector<double> output_distribution(
      std::uint32_t state, std::uint32_t input_bits) const;

  /// Exact state-transition matrix for a fixed input: T(next, current).
  /// Columns sum to 1 (column-stochastic, composable with la::Matrix
  /// products acting on probability column vectors). Under kHilbert every
  /// current state's input word goes through one apply_to_basis_columns
  /// call.
  [[nodiscard]] la::Matrix transition_matrix(std::uint32_t input_bits) const;

  /// Stationary distribution of the chain under a fixed input, computed by
  /// solving (T - I) pi = 0 with the normalization row sum(pi) = 1.
  /// Requires the chain to have a unique stationary distribution.
  [[nodiscard]] std::vector<double> stationary_distribution(
      std::uint32_t input_bits) const;

  /// Empirical state-visit frequencies over `cycles` Monte-Carlo steps with
  /// a fixed input (after discarding `burn_in` steps).
  [[nodiscard]] std::vector<double> empirical_distribution(
      std::uint32_t input_bits, std::size_t cycles, Rng& rng,
      std::size_t burn_in = 128);

 private:
  /// Exact outcome distribution over full output words for one input word,
  /// through the selected backend.
  [[nodiscard]] std::vector<double> joint_distribution(
      std::uint32_t word) const;

  gates::Cascade circuit_;
  std::size_t state_wires_;
  std::uint32_t state_ = 0;
  MeasurementBackend backend_ = MeasurementBackend::kMultiValued;
  // The circuit's fold, set iff backend_ == kHilbert. Its blocks are
  // immutable, so copies share them and may evaluate concurrently.
  std::optional<sim::FusedCascade> fused_;
};

}  // namespace qsyn::automata
