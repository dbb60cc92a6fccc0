// Unit tests for the Figure-3 quantum automaton loop and the HMM view:
// exact Markov-chain analysis vs Monte-Carlo simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "automata/automaton.h"
#include "common/error.h"
#include "automata/hmm.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "la/matrix.h"

namespace qsyn::automata {
namespace {

// A 3-wire automaton: wire A is the state bit, wires B and C are inputs/
// outputs. The circuit V_AB * V_AB (= CNOT A<-B on binary) deterministically
// flips the state when input bit B is 1; VAC makes A a coin when C is 1.
gates::Cascade flip_circuit() { return gates::Cascade::parse("VAB*VAB", 3); }
gates::Cascade coin_circuit() { return gates::Cascade::parse("VAC", 3); }

TEST(Automaton, ConstructionAndReset) {
  QuantumAutomaton m(flip_circuit(), 1);
  EXPECT_EQ(m.state_wires(), 1u);
  EXPECT_EQ(m.input_wires(), 2u);
  EXPECT_EQ(m.state_count(), 2u);
  EXPECT_EQ(m.state(), 0u);
  m.reset(1);
  EXPECT_EQ(m.state(), 1u);
  EXPECT_THROW(m.reset(2), qsyn::LogicError);
}

TEST(Automaton, DeterministicFlipSteps) {
  QuantumAutomaton m(flip_circuit(), 1);
  Rng rng(1);
  // Input B=1, C=0 (input word 0b10): state toggles every cycle.
  EXPECT_EQ(m.step(0b10, rng) >> 2, 1u);
  EXPECT_EQ(m.state(), 1u);
  m.step(0b10, rng);
  EXPECT_EQ(m.state(), 0u);
  // Input 00: state holds.
  m.step(0b00, rng);
  EXPECT_EQ(m.state(), 0u);
}

TEST(Automaton, OutputDistributionDeterministicCase) {
  QuantumAutomaton m(flip_circuit(), 1);
  const auto dist = m.output_distribution(0, 0b10);
  // Output word = (state=1, B=1, C=0) = 0b110 with probability 1.
  EXPECT_DOUBLE_EQ(dist[0b110], 1.0);
}

TEST(Automaton, CoinTransitionMatrix) {
  QuantumAutomaton m(coin_circuit(), 1);
  // Input C=1 (input word 0b01): state becomes a fair coin regardless.
  const la::Matrix t = m.transition_matrix(0b01);
  EXPECT_NEAR(t(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(t(1, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(t(0, 1).real(), 0.5, 1e-12);
  EXPECT_NEAR(t(1, 1).real(), 0.5, 1e-12);
  // Input C=0: identity chain.
  const la::Matrix hold = m.transition_matrix(0b00);
  EXPECT_NEAR(hold(0, 0).real(), 1.0, 1e-12);
  EXPECT_NEAR(hold(1, 1).real(), 1.0, 1e-12);
}

TEST(Automaton, TransitionMatrixColumnsAreStochastic) {
  QuantumAutomaton m(coin_circuit(), 1);
  for (std::uint32_t input = 0; input < 4; ++input) {
    const la::Matrix t = m.transition_matrix(input);
    for (std::size_t c = 0; c < t.cols(); ++c) {
      double total = 0.0;
      for (std::size_t r = 0; r < t.rows(); ++r) total += t(r, c).real();
      EXPECT_NEAR(total, 1.0, 1e-12);
    }
  }
}

TEST(Automaton, StationaryDistributionOfCoinChain) {
  QuantumAutomaton m(coin_circuit(), 1);
  const auto pi = m.stationary_distribution(0b01);
  ASSERT_EQ(pi.size(), 2u);
  EXPECT_NEAR(pi[0], 0.5, 1e-9);
  EXPECT_NEAR(pi[1], 0.5, 1e-9);
}

TEST(Automaton, EmpiricalMatchesStationary) {
  QuantumAutomaton m(coin_circuit(), 1);
  Rng rng(31);
  const auto empirical = m.empirical_distribution(0b01, 40000, rng);
  const auto exact = m.stationary_distribution(0b01);
  for (std::size_t s = 0; s < exact.size(); ++s) {
    EXPECT_NEAR(empirical[s], exact[s], 0.02);
  }
}

TEST(Automaton, TwoStateBiasedChain) {
  // State wires A,B; input wire C. V_AC arms a coin on A when C = 1, and
  // FBA copies-ish... use VAC*VBC: both state bits become coins when C=1.
  QuantumAutomaton m(gates::Cascade::parse("VAC*VBC", 3), 2);
  const auto pi = m.stationary_distribution(0b1);
  ASSERT_EQ(pi.size(), 4u);
  for (const double p : pi) EXPECT_NEAR(p, 0.25, 1e-9);
}

// --- HMM ---------------------------------------------------------------------

TEST(Automaton, HilbertBackendMatchesMultiValuedBackend) {
  // Differential check of the measurement rewire: on reasonable circuits
  // the full Hilbert-space backend (sim/fused.h) must reproduce the exact
  // multi-valued product rule — distributions, transition matrices and
  // stationary laws alike.
  for (const auto& circuit : {flip_circuit(), coin_circuit()}) {
    QuantumAutomaton reference(circuit, 1);
    QuantumAutomaton hilbert(circuit, 1);
    hilbert.set_measurement_backend(MeasurementBackend::kHilbert);
    EXPECT_EQ(hilbert.measurement_backend(), MeasurementBackend::kHilbert);
    for (std::uint32_t state = 0; state < 2; ++state) {
      for (std::uint32_t input = 0; input < 4; ++input) {
        const auto expected = reference.output_distribution(state, input);
        const auto got = hilbert.output_distribution(state, input);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_NEAR(got[i], expected[i], 1e-12)
              << "state " << state << " input " << input << " word " << i;
        }
      }
    }
    for (std::uint32_t input = 0; input < 4; ++input) {
      const la::Matrix expected = reference.transition_matrix(input);
      EXPECT_LE(hilbert.transition_matrix(input).max_abs_diff(expected),
                1e-12);
    }
  }
  // Switching back releases the fold and restores the product rule.
  QuantumAutomaton m(coin_circuit(), 1);
  m.set_measurement_backend(MeasurementBackend::kHilbert);
  m.set_measurement_backend(MeasurementBackend::kMultiValued);
  EXPECT_EQ(m.measurement_backend(), MeasurementBackend::kMultiValued);
}

TEST(Automaton, HilbertBackendStepsAndConverges) {
  // Monte-Carlo runs through the Hilbert backend still converge to the
  // exact stationary distribution of the induced Markov chain.
  QuantumAutomaton m(coin_circuit(), 1);
  m.set_measurement_backend(MeasurementBackend::kHilbert);
  Rng rng(99);
  const auto exact = m.stationary_distribution(0b01);
  const auto empirical = m.empirical_distribution(0b01, 20000, rng);
  for (std::size_t s = 0; s < exact.size(); ++s) {
    EXPECT_NEAR(empirical[s], exact[s], 0.02) << "state " << s;
  }
}

TEST(Automaton, ConcurrentHilbertCopiesMatchMultiValuedBackend) {
  // Copies of a Hilbert automaton share its folded blocks, which are
  // immutable, so copies on different threads evaluate concurrently. Two
  // state wires and six gates (two blocks) put transition_matrix on the
  // batched product path. The circuit is reasonable: B is read as a control
  // only before it is targeted, and C is never targeted.
  const gates::Cascade circuit =
      gates::Cascade::parse("VAB*VAB*VBC*VBC*VAC*VBC", 3);
  const QuantumAutomaton reference(circuit, 2);
  QuantumAutomaton hilbert(circuit, 2);
  hilbert.set_measurement_backend(MeasurementBackend::kHilbert);

  constexpr int kRounds = 200;
  std::vector<double> worst(2, 0.0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < worst.size(); ++t) {
    threads.emplace_back([&, t, copy = hilbert] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint32_t input = 0; input < 2; ++input) {
          worst[t] = std::max(
              worst[t], copy.transition_matrix(input).max_abs_diff(
                            reference.transition_matrix(input)));
          for (std::uint32_t state = 0; state < 4; ++state) {
            const auto got = copy.output_distribution(state, input);
            const auto expected = reference.output_distribution(state, input);
            for (std::size_t i = 0; i < got.size(); ++i) {
              worst[t] = std::max(worst[t], std::abs(got[i] - expected[i]));
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const double diff : worst) EXPECT_LE(diff, 1e-12);
}

TEST(Hmm, JointLawSumsToOne) {
  const QuantumHmm hmm(QuantumAutomaton(coin_circuit(), 1), 0b01);
  for (std::uint32_t s = 0; s < hmm.state_count(); ++s) {
    double total = 0.0;
    for (std::uint32_t t = 0; t < hmm.state_count(); ++t) {
      for (std::uint32_t e = 0; e < hmm.emission_count(); ++e) {
        total += hmm.joint_probability(s, t, e);
      }
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(Hmm, TransitionMarginalsMatchAutomaton) {
  QuantumAutomaton automaton(coin_circuit(), 1);
  const la::Matrix t = automaton.transition_matrix(0b01);
  const QuantumHmm hmm(std::move(automaton), 0b01);
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t n = 0; n < 2; ++n) {
      EXPECT_NEAR(hmm.transition_probability(s, n), t(n, s).real(), 1e-12);
    }
  }
}

TEST(Hmm, SampleTrajectoryShapes) {
  const QuantumHmm hmm(QuantumAutomaton(coin_circuit(), 1), 0b01);
  Rng rng(5);
  const auto traj = hmm.sample(0, 64, rng);
  EXPECT_EQ(traj.states.size(), 64u);
  EXPECT_EQ(traj.emissions.size(), 64u);
  for (const auto s : traj.states) EXPECT_LT(s, 2u);
  for (const auto e : traj.emissions) EXPECT_LT(e, 4u);
}

TEST(Hmm, LogLikelihoodOfDeterministicSequence) {
  // flip_circuit with fixed input B=1,C=0 emits (B=1,C=0) every step with
  // probability 1, so any sequence of emission 0b10 has log-likelihood 0.
  const QuantumHmm hmm(QuantumAutomaton(flip_circuit(), 1), 0b10);
  const std::vector<std::uint32_t> emissions(8, 0b10);
  EXPECT_NEAR(hmm.log_likelihood(0, emissions), 0.0, 1e-12);
}

TEST(Hmm, LogLikelihoodOfImpossibleSequence) {
  const QuantumHmm hmm(QuantumAutomaton(flip_circuit(), 1), 0b10);
  // Emission 0b00 never occurs under input 0b10.
  EXPECT_TRUE(std::isinf(hmm.log_likelihood(0, {0b00})));
}

TEST(Hmm, LogLikelihoodMatchesExactProbability) {
  // Coin chain: every emission (B,C)=(0,1) occurs with probability 1, state
  // splits 50/50 — emissions carry no information, likelihood of k steps of
  // emission 0b01 is exactly 1.
  const QuantumHmm hmm(QuantumAutomaton(coin_circuit(), 1), 0b01);
  EXPECT_NEAR(hmm.log_likelihood(0, std::vector<std::uint32_t>(5, 0b01)), 0.0,
              1e-12);
}

TEST(Hmm, EmpiricalTrajectoriesMatchJointLaw) {
  const QuantumHmm hmm(QuantumAutomaton(coin_circuit(), 1), 0b01);
  Rng rng(77);
  int next_one = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto traj = hmm.sample(0, 1, rng);
    next_one += traj.states[0];
  }
  EXPECT_NEAR(next_one / static_cast<double>(n),
              hmm.transition_probability(0, 1), 0.02);
}

TEST(Hmm, ArgumentChecks) {
  const QuantumHmm hmm(QuantumAutomaton(coin_circuit(), 1), 0b01);
  EXPECT_THROW((void)hmm.joint_probability(5, 0, 0), qsyn::LogicError);
  EXPECT_THROW((void)hmm.log_likelihood(9, {0}), qsyn::LogicError);
  EXPECT_THROW((void)hmm.log_likelihood(0, {9}), qsyn::LogicError);
}

}  // namespace
}  // namespace qsyn::automata
