#include "automata/automaton.h"

#include "automata/measurement.h"
#include "common/error.h"
#include "la/lu.h"
#include "la/vector.h"
#include "mvl/pattern.h"
#include "sim/state_vector.h"

namespace qsyn::automata {

QuantumAutomaton::QuantumAutomaton(gates::Cascade circuit,
                                   std::size_t state_wires)
    : circuit_(std::move(circuit)), state_wires_(state_wires) {
  QSYN_CHECK(state_wires_ >= 1 && state_wires_ <= circuit_.wires(),
             "state wires must be within the circuit wires");
}

void QuantumAutomaton::reset(std::uint32_t state) {
  QSYN_CHECK(state < state_count(), "state out of range");
  state_ = state;
}

void QuantumAutomaton::set_measurement_backend(MeasurementBackend backend) {
  backend_ = backend;
  if (backend_ == MeasurementBackend::kHilbert) {
    // A transient cache still shares equal blocks within the circuit; the
    // fold keeps its blocks after the cache is gone.
    sim::UnitaryCache cache;
    fused_.emplace(circuit_, sim::kDefaultFuseBlock, cache);
  } else {
    fused_.reset();
  }
}

std::vector<double> QuantumAutomaton::joint_distribution(
    std::uint32_t word) const {
  if (backend_ == MeasurementBackend::kHilbert) {
    return fused_->apply_to_basis(word).distribution();
  }
  const mvl::Pattern output =
      circuit_.apply(mvl::Pattern::from_binary(circuit_.wires(), word));
  return outcome_distribution(output);
}

std::uint32_t QuantumAutomaton::step(std::uint32_t input_bits, Rng& rng) {
  QSYN_CHECK(input_bits < (1u << input_wires()), "input out of range");
  const std::uint32_t word =
      (state_ << input_wires()) | input_bits;  // state high, input low
  std::uint32_t measured = 0;
  if (backend_ == MeasurementBackend::kHilbert) {
    // Sample the joint outcome from the simulated distribution.
    measured = sample_index(joint_distribution(word), rng);
  } else {
    const mvl::Pattern output =
        circuit_.apply(mvl::Pattern::from_binary(circuit_.wires(), word));
    measured = sample_measurement(output, rng);
  }
  state_ = measured >> input_wires();
  return measured;
}

std::vector<double> QuantumAutomaton::output_distribution(
    std::uint32_t state, std::uint32_t input_bits) const {
  QSYN_CHECK(state < state_count(), "state out of range");
  QSYN_CHECK(input_bits < (1u << input_wires()), "input out of range");
  const std::uint32_t word = (state << input_wires()) | input_bits;
  return joint_distribution(word);
}

la::Matrix QuantumAutomaton::transition_matrix(
    std::uint32_t input_bits) const {
  QSYN_CHECK(input_bits < (1u << input_wires()), "input out of range");
  const std::size_t n = state_count();
  std::vector<std::uint32_t> words(n);
  for (std::uint32_t current = 0; current < n; ++current) {
    words[current] = (current << input_wires()) | input_bits;
  }
  // Under kHilbert the whole column set is one batched evaluation.
  std::vector<sim::StateVector> outputs;
  if (backend_ == MeasurementBackend::kHilbert) {
    outputs = fused_->apply_to_basis_columns(words);
  }
  la::Matrix t(n, n);
  for (std::uint32_t current = 0; current < n; ++current) {
    const std::vector<double> joint = outputs.empty()
                                          ? joint_distribution(words[current])
                                          : outputs[current].distribution();
    for (std::uint32_t word = 0; word < joint.size(); ++word) {
      t(word >> input_wires(), current) += joint[word];
    }
  }
  return t;
}

std::vector<double> QuantumAutomaton::stationary_distribution(
    std::uint32_t input_bits) const {
  const std::size_t n = state_count();
  const la::Matrix t = transition_matrix(input_bits);
  // Solve (T - I) pi = 0 with the last equation replaced by sum(pi) = 1.
  la::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = t(r, c) - (r == c ? 1.0 : 0.0);
    }
  }
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  la::Vector b(n);
  b[n - 1] = 1.0;
  const la::Vector pi = la::solve(a, b);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pi[i].real();
  return out;
}

std::vector<double> QuantumAutomaton::empirical_distribution(
    std::uint32_t input_bits, std::size_t cycles, Rng& rng,
    std::size_t burn_in) {
  std::vector<std::size_t> visits(state_count(), 0);
  for (std::size_t i = 0; i < burn_in; ++i) step(input_bits, rng);
  for (std::size_t i = 0; i < cycles; ++i) {
    step(input_bits, rng);
    ++visits[state_];
  }
  std::vector<double> out(state_count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(visits[i]) / static_cast<double>(cycles);
  }
  return out;
}

}  // namespace qsyn::automata
