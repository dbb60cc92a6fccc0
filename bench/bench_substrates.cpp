// bench_substrates: micro-benchmarks of the from-scratch substrates the
// reproduction rests on — the complex matrix library, the permutation layer,
// the flat permutation store, and the state-vector simulator.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "la/lu.h"
#include "la/matrix.h"
#include "mvl/domain.h"
#include "perm/perm_group.h"
#include "perm/permutation.h"
#include "sim/state_vector.h"
#include "synth/flat_perm_store.h"
#include "synth/specs.h"

namespace {

using namespace qsyn;

la::Matrix random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m(r, c) = la::Complex(rng.uniform() - 0.5, rng.uniform() - 0.5);
    }
  }
  return m;
}

void bm_la_matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_matrix(n, 1);
  const la::Matrix b = random_matrix(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(bm_la_matmul)->Arg(8)->Arg(16)->Arg(64);

void bm_la_kron(benchmark::State& state) {
  const la::Matrix a = random_matrix(8, 3);
  const la::Matrix b = random_matrix(8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.kron(b));
  }
}
BENCHMARK(bm_la_kron);

void bm_la_lu_solve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_matrix(n, 5);
  la::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = la::Complex(1.0, -1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::solve(a, b));
  }
}
BENCHMARK(bm_la_lu_solve)->Arg(8)->Arg(32);

void bm_perm_compose_deg38(benchmark::State& state) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  const perm::Permutation a = library.permutation(0);
  const perm::Permutation b = library.permutation(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(bm_perm_compose_deg38);

void bm_perm_group_s8(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm::PermGroup::symmetric(8).order());
  }
}
BENCHMARK(bm_perm_group_s8)->Unit(benchmark::kMicrosecond);

void bm_flat_store_sort_unique(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    synth::FlatPermStore store(38);
    std::vector<std::uint8_t> row(38);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t s = 0; s < 38; ++s) {
        row[s] = static_cast<std::uint8_t>(s);
      }
      // Random transpositions produce distinct-ish permutations.
      for (int t = 0; t < 4; ++t) {
        std::swap(row[rng.below(38)], row[rng.below(38)]);
      }
      store.push_back(row.data());
    }
    state.ResumeTiming();
    store.sort_unique();
    benchmark::DoNotOptimize(store.size());
  }
}
BENCHMARK(bm_flat_store_sort_unique)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void bm_sim_cascade_3q(benchmark::State& state) {
  const gates::Cascade toffoli = synth::toffoli_cascades_fig9().front();
  for (auto _ : state) {
    sim::StateVector s = sim::StateVector::basis(3, 6);
    s.apply_cascade(toffoli);
    benchmark::DoNotOptimize(s.amplitudes());
  }
}
BENCHMARK(bm_sim_cascade_3q);

void bm_sim_cascade_8q(benchmark::State& state) {
  // Stress the simulator on 8 qubits (256 amplitudes).
  gates::Cascade c(8);
  for (std::size_t w = 0; w + 1 < 8; ++w) {
    c.append(gates::Gate::ctrl_v(w + 1, w));
    c.append(gates::Gate::feynman(w, w + 1));
  }
  for (auto _ : state) {
    sim::StateVector s(8);
    s.apply_gate(gates::Gate::not_gate(0));
    s.apply_cascade(c);
    benchmark::DoNotOptimize(s.amplitudes());
  }
}
BENCHMARK(bm_sim_cascade_8q);

}  // namespace

int main(int argc, char** argv) {
  return qsyn::bench::run_benchmarks(argc, argv);
}
