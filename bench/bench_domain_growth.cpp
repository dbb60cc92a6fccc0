// bench_domain_growth: the growth curve of the paper's construction
// generalized to n qubits behind the NQubitDomain / GateLibrary::standard
// API.
//
// For n = 2..5 the reduced domain has 4^n - 3^n + 1 labels and the library
// L(n) has 3n(n-1) gates (n control classes of 2(n-1) controlled-V/V+ each,
// C(n,2) Feynman classes of 2 CNOTs each) — 6/18/36/60 gates over
// 8/38/176/782 labels. The FMCF closure then runs a few levels per width to
// record frontier sizes, |G[k]|, expansion throughput (frontier rows per
// second) and memory. The 5-wire rows exercise the two-byte label stores
// and the 256-bit G-set keys end to end.
//
// Depth per width is sized for a laptop-class container; QSYN_GROWTH_DEPTH
// caps every width at once (1..8) for quick smoke runs or deeper pushes.
//
// The out-of-core section pushes the 5-wire closure one level past what the
// in-memory sweep records (k = 3: |B[3]| = 44350 rows of 1564 B, ~66 MiB)
// under a spill budget far below that frontier. The closure stores only one
// canonical row per wire-relabeling orbit (530 rows, ~0.8 MiB, at k = 3), so
// the level stays in RAM and within the budget; at k = 4 (7,807 reps,
// 12 MB) the stores seal ~16 MB of runs. B[k] itself is never built. The
// spill gate reruns the k = 3 closure under a budget below its rep stores,
// so they seal runs and drain R[3] from them, and checks it against the
// 32 MiB run's stats. Its table adds heap-vs-disk columns, and
// bm_closure_outofcore/n:5/threads:{1,2,4} exports the same run (levels,
// frontier rows, heap/disk MiB counters) into the bench JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/simd/kernels.h"
#include "gates/library.h"
#include "mvl/nqubit.h"
#include "synth/fmcf.h"

namespace {

using namespace qsyn;

// The one QSYN_GROWTH_DEPTH read (strict parse, warn-once on garbage),
// clamped per caller — the in-memory and out-of-core sections accept
// different ranges.
unsigned growth_depth_env(unsigned fallback, unsigned max_depth) {
  if (const auto cap = parse_env_size_t("QSYN_GROWTH_DEPTH", 1, max_depth)) {
    return static_cast<unsigned>(*cap);
  }
  return fallback;
}

unsigned depth_for(std::size_t wires) {
  // 2 wires run to saturation (GL(2,2) is tiny); 5-wire levels grow ~60x
  // per step, so the default depth shrinks with the width.
  unsigned depth = 2;
  if (wires == 2) depth = 8;
  if (wires == 3) depth = 4;
  if (wires == 4) depth = 3;
  return growth_depth_env(depth, 8);
}

void regenerate() {
  bench::section("Extension: n-qubit domain & library growth (n = 2..5)");
  for (std::size_t n = 2; n <= 5; ++n) {
    const mvl::NQubitDomain nq(n);
    const gates::GateLibrary library = gates::GateLibrary::standard(nq);
    const std::string tag = "n=" + std::to_string(n);
    bench::compare_row(
        tag + " domain labels",
        static_cast<long long>(mvl::NQubitDomain::reduced_size(n)),
        static_cast<long long>(nq.size()), "4^n - 3^n + 1");
    bench::compare_row(tag + " library gates",
                       static_cast<long long>(nq.library_size()),
                       static_cast<long long>(library.size()),
                       "3n(n-1); 18 at n=3");
    bench::value_row(tag + " banned classes",
                     std::to_string(nq.num_classes()) + " (" +
                         std::to_string(nq.control_class_count()) +
                         " control + " +
                         std::to_string(nq.feynman_class_count()) +
                         " Feynman)");

    synth::ClosureConfig options;
    options.track_witnesses = false;
    synth::FmcfEnumerator enumerator(library, options);
    std::printf(
        "  k | |B[k]|    | |G[k]|  | secs    | perms/s    | approx MiB\n");
    std::printf("  %s\n", std::string(62, '-').c_str());
    for (unsigned k = 1; k <= depth_for(n) && !enumerator.saturated(); ++k) {
      const auto& s = enumerator.advance();
      const double rate = s.seconds > 0 ? s.frontier / s.seconds : 0.0;
      std::printf("  %u | %-9zu | %-7zu | %-7.3f | %-10.0f | %zu\n", s.cost,
                  s.frontier, s.g_new, s.seconds, rate,
                  enumerator.memory_bytes() >> 20);
    }
    // |G[1]| is always the n(n-1) Feynman gates: controlled-V gates leave
    // binary patterns mixed, so cost-1 reversible circuits are exactly the
    // CNOTs.
    bench::compare_row(tag + " |G[1]|",
                       static_cast<long long>(n * (n - 1)),
                       static_cast<long long>(enumerator.stats()[0].g_new),
                       "the n(n-1) CNOTs");
  }
}

// Spill budget for the out-of-core rows: well under the ~66 MiB B[3] of the
// 5-wire closure, which the rep-only closure never stores, and large enough
// that run files stay chunky and the merge fan-in low.
constexpr std::size_t kOutOfCoreBudgetBytes = std::size_t(32) << 20;

// Spill budget for the spill gate: below the ~0.8 MiB seen set and the
// R[3] store of the 5-wire closure at k = 3, so both seal runs to disk.
constexpr std::size_t kSpillGateBudgetBytes = std::size_t(256) << 10;

unsigned outofcore_depth() {
  // One level past the in-memory default for n = 5. QSYN_GROWTH_DEPTH moves
  // it within 1..4: smoke runs set 1, and 4 opts into level 4 (|B[4]| =
  // 837,460, ~1.2 GiB as full rows), whose rep stores seal runs to disk.
  return growth_depth_env(3, 4);
}

void regenerate_outofcore() {
  bench::section(
      "Extension: out-of-core 5-wire closure (spill budget 32 MiB)");
  const gates::GateLibrary library = gates::GateLibrary::standard(5);
  synth::ClosureConfig options;
  options.track_witnesses = false;
  options.spill_budget_bytes = kOutOfCoreBudgetBytes;
  synth::FmcfEnumerator enumerator(library, options);
  std::printf(
      "  k | |B[k]|    | |G[k]|  | secs    | heap MiB | disk MiB\n");
  std::printf("  %s\n", std::string(58, '-').c_str());
  const unsigned depth = outofcore_depth();
  for (unsigned k = 1; k <= depth && !enumerator.saturated(); ++k) {
    const auto& s = enumerator.advance();
    std::printf("  %u | %-9zu | %-7zu | %-7.3f | %-8zu | %zu\n", s.cost,
                s.frontier, s.g_new, s.seconds,
                enumerator.memory_bytes() >> 20,
                enumerator.disk_bytes() >> 20);
  }
  if (depth >= 3) {
    // The point of the exercise: the 66 MiB k = 3 level runs within a
    // 32 MiB heap budget, and the stats it produces are the ones the
    // unbudgeted sweep computes (test_spill pins that identity).
    bench::value_row("n=5 heap within budget",
                     enumerator.memory_bytes() <= kOutOfCoreBudgetBytes
                         ? "yes"
                         : "NO (DIFFERS)");
    bench::value_row(
        "n=5 heap vs disk",
        std::to_string(enumerator.memory_bytes() >> 20) + " MiB heap, " +
            std::to_string(enumerator.disk_bytes() >> 20) + " MiB spilled");
    // The spill gate: under a budget the rep stores outgrow, the closure
    // seals runs, drains R[k] from them into a mapped file and still
    // computes the same stats.
    synth::ClosureConfig tight = options;
    tight.spill_budget_bytes = kSpillGateBudgetBytes;
    synth::FmcfEnumerator spilled(library, tight);
    spilled.run_to(depth);
    bool same_stats = spilled.levels_done() == enumerator.levels_done();
    for (unsigned k = 0; same_stats && k < spilled.levels_done(); ++k) {
      const synth::FmcfLevelStats& a = spilled.stats()[k];
      const synth::FmcfLevelStats& b = enumerator.stats()[k];
      same_stats = a.frontier == b.frontier && a.g_new == b.g_new &&
                   a.pre_g == b.pre_g && a.seen == b.seen;
    }
    const std::size_t drained = spilled.reps(depth).disk_bytes();
    bench::value_row("n=5 spill engaged",
                     drained > 0 && same_stats
                         ? "yes (R[" + std::to_string(depth) +
                               "] drained from " +
                               std::to_string(drained >> 10) +
                               " KiB of runs at a 256 KiB budget, same stats)"
                         : "NO (DIFFERS)");
  }
}

void bm_closure_outofcore(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const gates::GateLibrary library = gates::GateLibrary::standard(n);
  const unsigned depth = outofcore_depth();
  for (auto _ : state) {
    synth::ClosureConfig options;
    options.track_witnesses = false;
    options.threads = static_cast<std::size_t>(state.range(1));
    options.spill_budget_bytes = kOutOfCoreBudgetBytes;
    synth::FmcfEnumerator enumerator(library, options);
    enumerator.run_to(depth);
    benchmark::DoNotOptimize(enumerator.seen_count());
    state.counters["levels"] =
        static_cast<double>(enumerator.levels_done());
    state.counters["frontier_rows"] = static_cast<double>(
        enumerator.stats().empty() ? 0 : enumerator.stats().back().frontier);
    state.counters["heap_MiB"] =
        static_cast<double>(enumerator.memory_bytes() >> 20);
    state.counters["disk_MiB"] =
        static_cast<double>(enumerator.disk_bytes() >> 20);
  }
}
// Threads axis 1/2/4: one thread sweeps one shard; more threads cut the
// seen set into 4 shards per thread at its own evenly spaced rows.
BENCHMARK(bm_closure_outofcore)
    ->ArgNames({"n", "threads"})
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({5, 4})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

// --- kernel micro-benches ---------------------------------------------------
//
// The set-algebra kernels in isolation, on the row shapes the closure
// actually sweeps (38 B = n=3 one-byte labels, 1564 B = n=5 two-byte
// labels): the LSD radix sort_unique and the memcmp subtract sweep.
// sort_unique also runs on the closure's own cb = 7 input, whose shape
// random rows cannot show: B[6] of the 3-wire closure times every gate the
// banned sets allow, about half of it duplicates, with sorted neighbours
// sharing most of their leading bytes.

std::vector<std::uint8_t> random_rows(std::size_t count, std::size_t stride,
                                      std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> rows(count * stride);
  for (auto& byte : rows) byte = static_cast<std::uint8_t>(rng() & 0xFF);
  return rows;
}

/// The cb = 7 expansion of the 3-wire closure in expansion order: each row
/// of B[6] composed with every gate its banned set allows (the closure's
/// "reasonable product" rule), one-byte labels.
const std::vector<std::uint8_t>& closure_candidates() {
  static const std::vector<std::uint8_t> rows = [] {
    const gates::GateLibrary library = gates::GateLibrary::standard(3);
    const mvl::PatternDomain& domain = library.domain();
    synth::FmcfEnumerator closure(library);
    closure.run_to(6);
    const synth::FlatPermStore b6 = closure.frontier(6);
    const std::size_t width = b6.width();
    std::vector<std::uint16_t> images(domain.binary_count());
    std::vector<std::uint8_t> out;
    out.reserve(b6.size_bytes() * library.size());
    for (std::size_t i = 0; i < b6.size(); ++i) {
      const std::uint8_t* row = b6.row(i);
      std::copy(row, row + images.size(), images.begin());
      const std::uint32_t banned = domain.banned_of(images.data());
      for (std::size_t g = 0; g < library.size(); ++g) {
        if ((banned & library.class_bit(g)) != 0) continue;
        const std::uint16_t* table = library.table(g);
        for (std::size_t s = 0; s < width; ++s) {
          out.push_back(static_cast<std::uint8_t>(table[row[s]]));
        }
      }
    }
    return out;
  }();
  return rows;
}

/// Args: {stride, closure}. closure 1 = the closure's cb = 7 candidates
/// (stride 38), closure 0 = 8 MiB of uniformly random rows of `stride`
/// bytes.
void bm_kernel_sort_unique(benchmark::State& state) {
  const auto stride = static_cast<std::size_t>(state.range(0));
  const bool closure_shaped = state.range(1) != 0;
  std::vector<std::uint8_t> random;
  if (!closure_shaped) {
    random = random_rows((std::size_t(8) << 20) / stride, stride, 42);
  }
  const std::vector<std::uint8_t>& rows =
      closure_shaped ? closure_candidates() : random;
  const std::size_t count = rows.size() / stride;
  simd::RowBytes out;
  for (auto _ : state) {
    simd::sort_unique_rows(rows.data(), count, stride, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
  state.counters["rows"] = static_cast<double>(count);
  // The input's shape: duplicate share, and the mean common prefix (bytes)
  // of adjacent rows once sorted, duplicates included (a duplicate shares
  // all `stride` bytes with its neighbour).
  const std::size_t unique = out.size() / stride;
  std::size_t shared_bytes = (count - unique) * stride;
  for (std::size_t i = 1; i < unique; ++i) {
    const std::uint8_t* a = out.data() + (i - 1) * stride;
    const std::uint8_t* b = a + stride;
    std::size_t p = 0;
    while (p < stride && a[p] == b[p]) ++p;
    shared_bytes += p;
  }
  state.counters["dup_frac"] =
      1.0 - static_cast<double>(unique) / static_cast<double>(count);
  state.counters["mean_adjacent_prefix"] =
      count > 1 ? static_cast<double>(shared_bytes) /
                      static_cast<double>(count - 1)
                : 0.0;
}
BENCHMARK(bm_kernel_sort_unique)
    ->ArgNames({"stride", "closure"})
    ->Args({38, 1})
    ->Args({38, 0})
    ->Args({1564, 0})
    ->Unit(benchmark::kMillisecond);

void bm_kernel_subtract(benchmark::State& state) {
  const auto stride = static_cast<std::size_t>(state.range(0));
  const std::size_t count = (std::size_t(8) << 20) / stride;
  const std::vector<std::uint8_t> raw_a = random_rows(count, stride, 7);
  const std::vector<std::uint8_t> raw_b = random_rows(count, stride, 11);
  simd::RowBytes a;
  simd::RowBytes b;
  simd::sort_unique_rows(raw_a.data(), count, stride, a);
  simd::sort_unique_rows(raw_b.data(), count, stride, b);
  simd::RowBytes out;
  for (auto _ : state) {
    simd::subtract_sorted_rows(a.data(), a.size() / stride, b.data(),
                               b.size() / stride, stride, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(bm_kernel_subtract)
    ->Arg(38)
    ->Arg(1564)
    ->Unit(benchmark::kMillisecond);

/// Args: {stride, a_rows, b_rows}, sorted random rows. A short chunk
/// against a long run is the spilled shard's shape (one call per sealed
/// run), where subtract_sorted_rows gallops over b; a chunk many times its
/// shard is the cb = 7 in-RAM shape (16 shards: ~16 k candidates against
/// ~1.6 k seen reps per shard at k = 7).
void bm_kernel_subtract_skewed(benchmark::State& state) {
  const auto stride = static_cast<std::size_t>(state.range(0));
  const auto a_rows = static_cast<std::size_t>(state.range(1));
  const auto b_rows = static_cast<std::size_t>(state.range(2));
  const std::vector<std::uint8_t> raw_a = random_rows(a_rows, stride, 7);
  const std::vector<std::uint8_t> raw_b = random_rows(b_rows, stride, 11);
  simd::RowBytes a;
  simd::RowBytes b;
  simd::sort_unique_rows(raw_a.data(), a_rows, stride, a);
  simd::sort_unique_rows(raw_b.data(), b_rows, stride, b);
  simd::RowBytes out;
  for (auto _ : state) {
    simd::subtract_sorted_rows(a.data(), a.size() / stride, b.data(),
                               b.size() / stride, stride, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(bm_kernel_subtract_skewed)
    ->ArgNames({"stride", "a", "b"})
    ->Args({38, 1024, 262144})
    ->Args({1564, 64, 8192})
    ->Args({38, 16384, 1024})
    ->Unit(benchmark::kMicrosecond);

void bm_standard_library(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const gates::GateLibrary library = gates::GateLibrary::standard(n);
    benchmark::DoNotOptimize(library.size());
  }
}
BENCHMARK(bm_standard_library)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

void bm_closure_level2(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const mvl::NQubitDomain nq(n);
  const gates::GateLibrary library = gates::GateLibrary::standard(nq);
  for (auto _ : state) {
    synth::ClosureConfig options;
    options.track_witnesses = false;
    synth::FmcfEnumerator enumerator(library, options);
    enumerator.run_to(2);
    benchmark::DoNotOptimize(enumerator.seen_count());
  }
}
BENCHMARK(bm_closure_level2)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

// The 4-wire closure to k = 4 (|B[4]| = 104850 rows of 176 B) on 1/2/4
// threads: the set algebra of level 4 runs on split shards.
void bm_closure_n4_k4(benchmark::State& state) {
  const gates::GateLibrary library = gates::GateLibrary::standard(4);
  for (auto _ : state) {
    synth::ClosureConfig options;
    options.track_witnesses = false;
    options.threads = static_cast<std::size_t>(state.range(0));
    synth::FmcfEnumerator enumerator(library, options);
    enumerator.run_to(4);
    benchmark::DoNotOptimize(enumerator.seen_count());
  }
}
BENCHMARK(bm_closure_n4_k4)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t total_start = metrics::now_ns();
  regenerate();
  regenerate_outofcore();
  std::printf("  total wall time: %.2f s\n",
              metrics::seconds_since(total_start));
  return qsyn::bench::run_benchmarks(argc, argv);
}
