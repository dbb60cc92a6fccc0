// bench_catalog: the persistent-catalog cold-start and serving numbers.
//
// The paper's workflow recomputes the FMCF closure on every run — at the
// paper's own bound cb = 7 that is a multi-hundred-millisecond sweep before
// the first query can be answered. The persistent catalog amortizes it: one
// process pays the sweep and save_catalog(), every later process reopens the
// file read-only (the frontier tables stay mmap'd, faulted in on demand) and
// serves locate()/witness() immediately. This bench measures the sweep, the
// cold start (open + first query), the batched serving throughput of
// CatalogServer, and the witness-cache hit rate.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "gates/library.h"
#include "synth/catalog_server.h"
#include "synth/fmcf.h"
#include "synth/mce.h"
#include "synth/specs.h"

namespace {

using namespace qsyn;

const gates::GateLibrary& library3() {
  static const gates::GateLibrary lib = gates::GateLibrary::standard(3);
  return lib;
}

struct CatalogState {
  std::string path;
  double sweep_seconds = 0.0;
  std::size_t file_bytes = 0;
  unsigned levels = 0;
  std::size_t g7 = 0;  // |G[7]| from the fresh sweep
};

/// Builds the cb = 7 closure once and saves it; everything below queries the
/// saved file.
const CatalogState& catalog_state() {
  static const CatalogState state = [] {
    CatalogState s;
    s.path = (std::filesystem::temp_directory_path() /
              "qsyn_bench_catalog_cb7.qscat")
                 .string();
    const std::uint64_t sweep_start = metrics::now_ns();
    synth::FmcfEnumerator enumerator(library3());
    enumerator.run_to(7);
    s.sweep_seconds = metrics::seconds_since(sweep_start);
    s.levels = enumerator.levels_done();
    s.g7 = enumerator.stats().back().g_new;
    enumerator.save_catalog(s.path);
    s.file_bytes = std::filesystem::file_size(s.path);
    return s;
  }();
  return state;
}

std::vector<perm::Permutation> query_targets() {
  return {synth::peres_perm(),  synth::toffoli_perm(), synth::g2_perm(),
          synth::g3_perm(),     synth::g4_perm(),      synth::swap_bc_perm(),
          synth::fredkin_perm()};
}

void regenerate() {
  const CatalogState& state = catalog_state();
  bench::section("Persistent catalog: cold start vs recomputing the closure");
  bench::value_row("cb = 7 closure sweep",
                   std::to_string(state.sweep_seconds * 1e3) + " ms");
  bench::value_row("catalog size on disk",
                   std::to_string(state.file_bytes >> 20) + " MiB (" +
                       std::to_string(state.file_bytes) + " bytes)");

  const std::uint64_t cold_start = metrics::now_ns();
  const synth::FmcfEnumerator reopened =
      synth::FmcfEnumerator::open_catalog(state.path, library3());
  const auto first = reopened.find(synth::peres_perm());
  const double cold_seconds = metrics::seconds_since(cold_start);
  bench::value_row("cold start (open + first locate)",
                   std::to_string(cold_seconds * 1e3) + " ms");
  std::printf("  %-34s %s (bound 50 ms, sweep %.0f ms)\n",
              "cold start under 50 ms",
              bench::status_word(cold_seconds < 0.050),
              state.sweep_seconds * 1e3);
  bench::value_row(
      "cold-start speedup vs sweep",
      std::to_string(state.sweep_seconds / cold_seconds) + "x");

  bench::compare_row("reopened levels (cb)", 7, reopened.levels_done());
  bench::compare_row("peres located at cost", 4,
                     first.has_value() ? first->cost : -1);
  // |G[7]| — served straight from the reopened index, identical to the
  // fresh sweep's count.
  bench::compare_row("|G[7]| from the catalog",
                     static_cast<long long>(state.g7),
                     static_cast<long long>(reopened.stats()[6].g_new));

  // Serving layer: batched queries + witness cache.
  const synth::CatalogServer server =
      synth::CatalogServer::open(state.path, library3());
  const std::vector<perm::Permutation> targets = query_targets();
  std::size_t answered = 0;
  for (int round = 0; round < 16; ++round) {
    for (const auto& result : server.synthesize_batch(targets)) {
      answered += result.has_value() ? 1 : 0;
    }
  }
  const auto cache = server.cache_stats();
  bench::value_row("batched synthesize answers",
                   std::to_string(answered) + " / " +
                       std::to_string(16 * targets.size()));
  const double hit_rate =
      cache.hits + cache.misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses);
  bench::value_row("witness cache",
                   std::to_string(cache.hits) + " hits / " +
                       std::to_string(cache.misses) + " misses (" +
                       std::to_string(hit_rate) + " % hit rate)");
  std::printf("  %-34s %s\n", "cache converges to repeat hits",
              bench::status_word(cache.misses <= targets.size() &&
                                 cache.hits >= cache.misses));
}

// Cold start: open the catalog and answer one locate. This is the number the
// catalog exists to shrink — compare against the sweep row above.
void bm_catalog_cold_start(benchmark::State& bench_state) {
  const CatalogState& state = catalog_state();
  for (auto _ : bench_state) {
    const synth::FmcfEnumerator reopened =
        synth::FmcfEnumerator::open_catalog(state.path, library3());
    benchmark::DoNotOptimize(reopened.find(synth::peres_perm()));
  }
}
BENCHMARK(bm_catalog_cold_start)->Unit(benchmark::kMillisecond);

// Steady-state single queries against a warm server (locate only: the pure
// mmap'd-index path, no witness reconstruction).
void bm_catalog_locate(benchmark::State& bench_state) {
  const synth::CatalogServer server =
      synth::CatalogServer::open(catalog_state().path, library3());
  const std::vector<perm::Permutation> targets = query_targets();
  std::size_t i = 0;
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(server.locate(targets[i % targets.size()]));
    ++i;
  }
  bench_state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(bm_catalog_locate);

// Batched synthesize throughput over the server's worker pool, witness cache
// warm after the first iteration (the steady serving regime).
void bm_catalog_server_batch(benchmark::State& bench_state) {
  const synth::CatalogServer server =
      synth::CatalogServer::open(catalog_state().path, library3());
  std::vector<perm::Permutation> batch;
  for (int i = 0; i < 16; ++i) {
    const auto targets = query_targets();
    batch.insert(batch.end(), targets.begin(), targets.end());
  }
  std::size_t answers = 0;
  for (auto _ : bench_state) {
    for (const auto& result : server.synthesize_batch(batch)) {
      answers += result.has_value() ? 1 : 0;
    }
  }
  benchmark::DoNotOptimize(answers);
  bench_state.SetItemsProcessed(
      static_cast<std::int64_t>(bench_state.iterations() * batch.size()));
  const auto cache = server.cache_stats();
  bench_state.counters["cache_hit_rate"] =
      cache.hits + cache.misses == 0
          ? 0.0
          : static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses);
}
BENCHMARK(bm_catalog_server_batch)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t total_start = metrics::now_ns();
  regenerate();
  std::printf("  total wall time: %.2f s\n",
              metrics::seconds_since(total_start));
  const int rc = qsyn::bench::run_benchmarks(argc, argv);
  std::filesystem::remove(catalog_state().path);
  return rc;
}
