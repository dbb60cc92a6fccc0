// bench_backends: time-to-first-cascade across the three synthesis backends.
//
// The SynthesisBackend seam makes "answer one target" a like-for-like race:
//   * closure  — fresh McExpressor; pays the breadth-first sweep up to
//     the target's cost before the first answer, then serves instantly;
//   * catalog  — CatalogServer over a saved closure; pays only the mmap
//     open, serving stored answers with zero enumeration;
//   * search   — TopologySearchBackend; pays an iterative-deepening DFS per
//     query but stores (almost) nothing.
// The crossover is the point of the seam: the catalog wins on stored
// answers, the closure wins on repeated queries it can amortize, and the
// DFS answers from a small memo — the 5-wire cost-4 row below is a level
// whose frontier holds 837,460 rows (~1.2 GiB as full rows; the closure
// stores its 7,807 canonical rows, ~12 MB) and the search answers from a
// memo far smaller than either.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "gates/library.h"
#include "perm/permutation.h"
#include "synth/catalog_server.h"
#include "synth/fmcf.h"
#include "synth/mce.h"
#include "synth/search/topology_search.h"
#include "synth/specs.h"

namespace {

using namespace qsyn;

const gates::GateLibrary& library3() {
  static const gates::GateLibrary lib = gates::GateLibrary::standard(3);
  return lib;
}

const gates::GateLibrary& library5() {
  static const gates::GateLibrary lib = gates::GateLibrary::standard(5);
  return lib;
}

/// A saved cb = 5 catalog for the stored-answer lane.
const std::string& catalog_path() {
  static const std::string path = [] {
    const std::string p = (std::filesystem::temp_directory_path() /
                           "qsyn_bench_backends_cb5.qscat")
                              .string();
    synth::FmcfEnumerator enumerator(library3());
    enumerator.run_to(5);
    enumerator.save_catalog(p);
    return p;
  }();
  return path;
}

/// Peres on wires {A, B, C} of a 5-wire domain, identity on {D, E}: the
/// acceptance target provably at cost 4, past the in-memory closure's reach.
perm::Permutation peres_on_5() {
  const auto peres = synth::peres_perm();
  std::vector<std::uint32_t> images(32);
  for (std::uint32_t l = 0; l < 32; ++l) {
    images[l] = ((peres.apply((l >> 2) + 1) - 1) << 2 | (l & 3u)) + 1;
  }
  return perm::Permutation::from_images(std::move(images));
}

void regenerate() {
  bench::section("Synthesis backends: time to first cascade (Peres, n = 3)");
  (void)catalog_path();  // save the catalog outside every timed region

  const std::uint64_t closure_start = metrics::now_ns();
  synth::McExpressor closure(library3(), 5);
  const auto via_closure = closure.synthesize(synth::peres_perm());
  const double closure_seconds = metrics::seconds_since(closure_start);

  const std::uint64_t catalog_start = metrics::now_ns();
  synth::CatalogServer server =
      synth::CatalogServer::open(catalog_path(), library3());
  const auto via_catalog = server.synthesize(synth::peres_perm());
  const double catalog_seconds = metrics::seconds_since(catalog_start);

  const std::uint64_t search_start = metrics::now_ns();
  synth::SearchConfig config;
  config.max_cost = 5;
  synth::TopologySearchBackend search(library3(), config);
  const auto via_search = search.synthesize(synth::peres_perm());
  const double search_seconds = metrics::seconds_since(search_start);

  bench::compare_row("closure answer cost", 4,
                     via_closure.has_value() ? via_closure->cost : -1);
  bench::compare_row("catalog answer cost", 4,
                     via_catalog.has_value() ? via_catalog->cost : -1);
  bench::compare_row("search answer cost", 4,
                     via_search.has_value() ? via_search->cost : -1);
  bench::value_row("closure (sweep + first answer)",
                   std::to_string(closure_seconds * 1e3) + " ms");
  bench::value_row("catalog (open + first answer)",
                   std::to_string(catalog_seconds * 1e3) + " ms");
  bench::value_row("search (DFS first answer)",
                   std::to_string(search_seconds * 1e3) + " ms");

  bench::section("Beyond the in-memory closure: 5-wire cost-4 target");
  const std::uint64_t wide_start = metrics::now_ns();
  synth::SearchConfig wide;
  wide.max_cost = 4;
  synth::TopologySearchBackend wide_search(library5(), wide);
  const auto wide_answer = wide_search.synthesize(peres_on_5());
  const double wide_seconds = metrics::seconds_since(wide_start);
  bench::compare_row("5-wire Peres-embedded cost", 4,
                     wide_answer.has_value() ? wide_answer->cost : -1);
  bench::value_row("search time", std::to_string(wide_seconds) + " s");
  const std::size_t memo_bytes =
      wide_search.stats().peak_memo_rows * 2 * 32;  // 2-byte labels, 32 rows
  bench::value_row("peak memo",
                   std::to_string(memo_bytes >> 20) + " MiB (" +
                       std::to_string(wide_search.stats().peak_memo_rows) +
                       " states)");
  // The 5-wire closure's level 4 holds 837,460 rows (~1.2 GiB as full
  // rows); the search stays under 256 MiB.
  std::printf("  %-34s %s (B[4] is ~1.2 GiB as full rows)\n",
              "answered within a 256 MiB memo",
              bench::status_word(wide_answer.has_value() &&
                                 memo_bytes < (std::size_t(1) << 28)));
}

// One fresh closure per iteration: the sweep is the dominant cost, which is
// exactly what a cold single-target caller pays.
void bm_first_cascade_closure(benchmark::State& state) {
  for (auto _ : state) {
    synth::McExpressor backend(library3(), 5);
    benchmark::DoNotOptimize(backend.synthesize(synth::peres_perm()));
  }
}
BENCHMARK(bm_first_cascade_closure)->Unit(benchmark::kMillisecond);

// Catalog lane: open the saved file and answer (the PR 6 cold-start path,
// now through the serving layer the seam adapts).
void bm_first_cascade_catalog(benchmark::State& state) {
  for (auto _ : state) {
    synth::CatalogServer server =
        synth::CatalogServer::open(catalog_path(), library3());
    benchmark::DoNotOptimize(server.synthesize(synth::peres_perm()));
  }
}
BENCHMARK(bm_first_cascade_catalog)->Unit(benchmark::kMillisecond);

// DFS lane: a fresh engine per iteration (table build + deepening search).
void bm_first_cascade_search(benchmark::State& state) {
  for (auto _ : state) {
    synth::SearchConfig config;
    config.max_cost = 5;
    synth::TopologySearchBackend backend(library3(), config);
    benchmark::DoNotOptimize(backend.synthesize(synth::peres_perm()));
  }
}
BENCHMARK(bm_first_cascade_search)->Unit(benchmark::kMillisecond);

// The beyond-closure regime: 5-wire cost-4 target, in-memory answer.
void bm_search_5wire_cost4(benchmark::State& state) {
  const auto target = peres_on_5();
  for (auto _ : state) {
    synth::SearchConfig config;
    config.max_cost = 4;
    synth::TopologySearchBackend backend(library5(), config);
    benchmark::DoNotOptimize(backend.synthesize(target));
  }
}
BENCHMARK(bm_search_5wire_cost4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t total_start = metrics::now_ns();
  regenerate();
  std::printf("  total wall time: %.2f s\n",
              metrics::seconds_since(total_start));
  const int rc = qsyn::bench::run_benchmarks(argc, argv);
  std::filesystem::remove(catalog_path());
  return rc;
}
