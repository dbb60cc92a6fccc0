// bench_sim_batch: the batched & fused simulation engine (sim/fused.h,
// sim/batch.h) on the soundness-sweep serving workload — cross-checking a
// catalog of circuits against the multi-valued model, many circuits per
// call. The artifact section proves the fast path agrees with the
// gate-at-a-time oracle (sim::mv_model_matches_hilbert_reference) on every
// catalog member; the micro-timings measure the cross-check sweep through
// the oracle vs fused block sizes and thread counts, plus raw
// batch-evaluation throughput. Run via scripts/run_benches.sh to land the
// timings in BENCH_pr<N>.json and diff the fused rows against the oracle
// row.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "sim/batch.h"
#include "sim/cross_check.h"
#include "sim/fused.h"
#include "sim/state_vector.h"
#include "synth/specs.h"

namespace {

using namespace qsyn;

/// A random cascade over the library that stays reasonable gate by gate, so
/// the sweep exercises the full 2^n-input check on every member.
gates::Cascade random_reasonable_cascade(Rng& rng,
                                         const gates::GateLibrary& library,
                                         std::size_t length) {
  gates::Cascade c(library.domain().wires());
  for (std::size_t i = 0; i < length; ++i) {
    for (int tries = 0; tries < 64; ++tries) {
      gates::Cascade extended = c;
      extended.append(library.gate(rng.below(library.size())));
      if (extended.is_reasonable(library.domain())) {
        c = std::move(extended);
        break;
      }
    }
  }
  return c;
}

/// The serving catalog: the paper's printed circuits plus seeded random
/// reasonable cascades (lengths 4..15 — long enough that fusion has blocks
/// to fold).
const std::vector<gates::Cascade>& catalog() {
  static const std::vector<gates::Cascade> circuits = [] {
    const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
    const gates::GateLibrary library(domain);
    std::vector<gates::Cascade> out;
    out.push_back(synth::peres_cascade_fig4());
    out.push_back(synth::peres_cascade_fig8());
    out.push_back(synth::g2_cascade_fig5());
    out.push_back(synth::g3_cascade_fig6());
    out.push_back(synth::g4_cascade_fig7());
    for (const gates::Cascade& c : synth::toffoli_cascades_fig9()) {
      out.push_back(c);
    }
    Rng rng(42);
    while (out.size() < 160) {
      out.push_back(
          random_reasonable_cascade(rng, library, 4 + rng.below(12)));
    }
    return out;
  }();
  return circuits;
}

std::vector<const gates::Cascade*> catalog_pointers() {
  std::vector<const gates::Cascade*> out;
  for (const gates::Cascade& c : catalog()) out.push_back(&c);
  return out;
}

void regenerate_artifact() {
  bench::section("Batched & fused cross-check sweep (soundness serving)");
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const auto pointers = catalog_pointers();

  std::vector<char> expected;
  for (const gates::Cascade* c : pointers) {
    expected.push_back(
        sim::mv_model_matches_hilbert_reference(*c, domain, 1e-9) ? 1 : 0);
  }
  long long reference_pass = 0;
  for (const char ok : expected) reference_pass += ok;

  bench::compare_row("catalog circuits pass (reference)",
                     static_cast<long long>(pointers.size()), reference_pass,
                     "every reasonable cascade must pass");

  for (const std::size_t fuse : {1u, 4u, 16u}) {
    sim::SimOptions options;
    options.fuse_block = fuse;
    options.threads = 1;
    sim::BatchSimulator fused(options);
    const std::vector<char> got = fused.check_mv_model(pointers, domain, 1e-9);
    long long agree = 0;
    for (std::size_t i = 0; i < got.size(); ++i) agree += got[i] == expected[i];
    bench::compare_row(
        "fused verdicts agree (fuse=" + std::to_string(fuse) + ")",
        static_cast<long long>(pointers.size()), agree);
    if (fuse == 16) {
      bench::value_row("block cache (fuse=16)",
                       std::to_string(fused.cache().size()) + " blocks, " +
                           std::to_string(fused.cache().hits()) + " hits / " +
                           std::to_string(fused.cache().misses()) +
                           " misses");
    }
  }

  // The GEMM-batched run must be bit-identical (dyadic amplitudes), not
  // just tolerance-close, to applying each job's fused cascade on its own.
  // fuse_block = 4 folds the length-4..15 catalog cascades to 1..4 blocks,
  // so the batched products engage past block 0.
  std::vector<sim::SimJob> jobs;
  for (const gates::Cascade& c : catalog()) {
    for (std::uint32_t bits = 0; bits < (1u << c.wires()); ++bits) {
      jobs.push_back(sim::SimJob{&c, bits});
    }
  }
  sim::SimOptions gemm_options;
  gemm_options.fuse_block = 4;
  gemm_options.threads = 1;
  sim::BatchSimulator gemm_sim(gemm_options);
  const std::vector<la::Vector> gemm_states = gemm_sim.run(jobs);
  long long identical = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const sim::FusedCascade per_job(*jobs[i].cascade, 4, gemm_sim.cache());
    identical += gemm_states[i].data() ==
                 per_job.apply_to_basis(jobs[i].input_bits).amplitudes().data();
  }
  bench::compare_row("gemm == per-column (bitwise)",
                     static_cast<long long>(jobs.size()), identical,
                     "exact dyadic arithmetic");
}

/// One full soundness sweep over the catalog through the gate-at-a-time
/// oracle: the unfused baseline the fused rows are diffed against.
void bm_cross_check_sweep_reference(benchmark::State& state) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const auto pointers = catalog_pointers();
  for (auto _ : state) {
    for (const gates::Cascade* c : pointers) {
      benchmark::DoNotOptimize(
          sim::mv_model_matches_hilbert_reference(*c, domain, 1e-9));
    }
  }
  state.counters["circuits"] = static_cast<double>(pointers.size());
}
BENCHMARK(bm_cross_check_sweep_reference)->Unit(benchmark::kMillisecond);

/// The same sweep through the fused engine, per fuse_block.
void bm_cross_check_sweep(benchmark::State& state) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const auto pointers = catalog_pointers();
  sim::SimOptions options;
  options.fuse_block = static_cast<std::size_t>(state.range(0));
  options.threads = 1;
  sim::BatchSimulator sim(options);
  // Warm the block cache: steady-state serving re-checks a known catalog.
  benchmark::DoNotOptimize(sim.check_mv_model(pointers, domain, 1e-9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.check_mv_model(pointers, domain, 1e-9));
  }
  state.counters["circuits"] = static_cast<double>(pointers.size());
}
BENCHMARK(bm_cross_check_sweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// The same sweep fanned out across worker threads (fuse_block = 4).
void bm_cross_check_sweep_threads(benchmark::State& state) {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const auto pointers = catalog_pointers();
  sim::SimOptions options;
  options.fuse_block = 4;
  options.threads = static_cast<std::size_t>(state.range(0));
  sim::BatchSimulator sim(options);
  benchmark::DoNotOptimize(sim.check_mv_model(pointers, domain, 1e-9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.check_mv_model(pointers, domain, 1e-9));
  }
}
BENCHMARK(bm_cross_check_sweep_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Raw batch throughput: every (circuit, input) pair of the catalog as one
/// jobs vector — the many-circuits-per-call serving shape.
void bm_batch_throughput(benchmark::State& state) {
  std::vector<sim::SimJob> jobs;
  for (const gates::Cascade& c : catalog()) {
    for (std::uint32_t bits = 0; bits < (1u << c.wires()); ++bits) {
      jobs.push_back(sim::SimJob{&c, bits});
    }
  }
  sim::SimOptions options;
  options.fuse_block = static_cast<std::size_t>(state.range(0));
  options.threads = 1;
  sim::BatchSimulator sim(options);
  benchmark::DoNotOptimize(sim.run(jobs));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(bm_batch_throughput)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  regenerate_artifact();
  return qsyn::bench::run_benchmarks(argc, argv);
}
