// bench_fig3_automata: regenerates Figure 3 / Section 4 — quantum-realized
// probabilistic machines. Synthesizes a controlled quantum random number
// generator, closes it into the Figure-3 automaton loop, and compares the
// exact Markov-chain stationary distribution (linear solve) with Monte-Carlo
// measurement runs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "automata/automaton.h"
#include "automata/hmm.h"
#include "automata/prob_synth.h"
#include "automata/qrng.h"
#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "gates/library.h"
#include "mvl/domain.h"

namespace {

using namespace qsyn;

bool regenerate() {
  bench::section("Figure 3 / Section 4: quantum probabilistic machines");
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);

  // 1. Controlled QRNG: wire C becomes a fair coin whenever wire A is 1.
  const std::uint64_t start = metrics::now_ns();
  const auto qrng =
      automata::ControlledQrng::synthesize(library,
                                           automata::controlled_coin_spec(3));
  if (!qrng.has_value()) {
    std::printf("  QRNG synthesis FAILED\n");
    return false;
  }
  std::printf("  QRNG circuit: %s (cost %zu, synthesized in %.4f s)\n",
              qrng->circuit().to_string().c_str(), qrng->circuit().size(),
              metrics::seconds_since(start));
  const auto dist = qrng->distribution(0b100);
  bench::compare_row_near("P[C=0] given A=1,B=0,C=0", 0.5, dist[0b100], 1e-9,
                          "fair coin");
  bench::compare_row_near("P[C=1] given A=1,B=0,C=0", 0.5, dist[0b101], 1e-9,
                          "fair coin");
  Rng rng(1234);
  const auto hist = qrng->histogram(0b100, 100000, rng);
  std::printf("  100k samples: %zu / %zu (coin flips)\n", hist[0b100],
              hist[0b101]);

  // 2. Figure-3 loop: state register + combinational quantum block.
  //    Wire A is the state; input C=1 re-randomizes the state each cycle.
  automata::QuantumAutomaton machine(gates::Cascade::parse("VAC", 3), 1);
  const auto exact = machine.stationary_distribution(0b01);
  const auto empirical = machine.empirical_distribution(0b01, 200000, rng);
  std::printf("\n  probabilistic FSM (state = wire A, input C = 1):\n");
  for (std::size_t s = 0; s < exact.size(); ++s) {
    bench::compare_row_near("stationary P[state=" + std::to_string(s) + "]",
                            exact[s], empirical[s], 5e-3,
                            "exact solve vs 200k Monte-Carlo steps");
  }

  // 3. HMM view: emissions carry the measured non-state wires.
  const automata::QuantumHmm hmm(std::move(machine), 0b01);
  const auto traj = hmm.sample(0, 16, rng);
  std::printf("  HMM sample trajectory (16 steps): states ");
  for (const auto s : traj.states) std::printf("%u", s);
  std::printf("\n  log-likelihood of that emission sequence: %.4f\n",
              hmm.log_likelihood(0, traj.emissions));
  return true;
}

void bm_qrng_generate(benchmark::State& state) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  const auto qrng = automata::ControlledQrng::synthesize(
      library, automata::controlled_coin_spec(3));
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qrng->generate(0b100, rng));
  }
}
BENCHMARK(bm_qrng_generate);

void bm_automaton_step(benchmark::State& state) {
  automata::QuantumAutomaton machine(gates::Cascade::parse("VAC", 3), 1);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.step(0b01, rng));
  }
}
BENCHMARK(bm_automaton_step);

void bm_stationary_solve(benchmark::State& state) {
  automata::QuantumAutomaton machine(gates::Cascade::parse("VAC*VBC", 3), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.stationary_distribution(0b1));
  }
}
BENCHMARK(bm_stationary_solve)->Unit(benchmark::kMicrosecond);

automata::BehavioralProbSpec coin_behavior() {
  return automata::controlled_coin_spec(3);
}

/// Toffoli's measured behaviour (every wire deterministic): the cost-5 spec
/// that behaviour learning recovers from Toffoli samples.
automata::BehavioralProbSpec toffoli_behavior() {
  std::vector<std::vector<automata::WireBehavior>> rows;
  for (std::uint32_t input = 0; input < 8; ++input) {
    const std::uint32_t output = (input & 6u) == 6u ? input ^ 1u : input;
    std::vector<automata::WireBehavior> row;
    for (int bit = 2; bit >= 0; --bit) {
      const bool one = ((output >> bit) & 1u) != 0;
      row.push_back(one ? automata::WireBehavior::kOne
                        : automata::WireBehavior::kZero);
    }
    rows.push_back(std::move(row));
  }
  return automata::BehavioralProbSpec(3, std::move(rows));
}

/// Minimal probabilistic synthesis: one ProbSynthesizer query per iteration.
void bm_prob_synth(benchmark::State& state,
                   automata::BehavioralProbSpec (*make_spec)()) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  const automata::BehavioralProbSpec spec = make_spec();
  const automata::ProbSynthesizer synthesizer(library);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesizer.synthesize(spec));
  }
}
BENCHMARK_CAPTURE(bm_prob_synth, controlled_coin, &coin_behavior)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(bm_prob_synth, toffoli_behavior, &toffoli_behavior)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // regenerate() is false only on the synthesis-failure early exit;
  // comparison-row mismatches reach the exit code via run_benchmarks.
  const bool synthesized = regenerate();
  const int bench_rc = qsyn::bench::run_benchmarks(argc, argv);
  return synthesized ? bench_rc : 1;
}
