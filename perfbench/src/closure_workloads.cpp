// The closure workloads: table2_n3 (the paper's Table 2, cb = 7 in RAM) and
// outofcore_n5 (the 5-wire closure to k = 3 under a 32 MiB spill budget),
// plus the level-by-level closure readings shared with the other workloads.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "closure_levels.h"
#include "gates/library.h"
#include "gen.h"
#include "synth/closure_config.h"
#include "synth/sharded_perm_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

using qsyn::gates::GateLibrary;
using qsyn::synth::ClosureConfig;
using qsyn::synth::FmcfEnumerator;

}  // namespace

void ClosureLevels::run(FmcfEnumerator& closure, unsigned levels,
                        Tracer* tracer) {
  const double library_size = static_cast<double>(closure.library().size());
  while (closure.levels_done() < levels) {
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const qsyn::synth::FmcfLevelStats& stats = closure.advance();
    const std::uint64_t t1 = now_ns();
    const double cpu1 = process_cpu_s();
    if (tracer == nullptr) continue;
    const unsigned k = stats.cost;
    tracer->record(0, "synth/fmcf.advance", t0, t1, k);
    if (k > kMaxLevel) continue;
    Level& level = levels_[k];
    const double wall = static_cast<double>(t1 - t0) * 1e-9;
    level.seconds.push_back(wall);
    level.cpu_util.push_back((cpu1 - cpu0) /
                             (wall * static_cast<double>(closure.threads())));
    level.heap_mib.push_back(static_cast<double>(closure.memory_bytes()) / kMiB);
    level.disk_mib.push_back(static_cast<double>(closure.disk_bytes()) / kMiB);
    const double previous =
        k == 1 ? 1.0 : static_cast<double>(closure.stats()[k - 2].frontier);
    level.rows_in = previous * library_size;
    level.frontier_rows = static_cast<double>(stats.frontier);
  }
}

void ClosureLevels::emit(Report& report) const {
  for (unsigned k = 1; k <= kMaxLevel; ++k) {
    const Level& level = levels_[k];
    const std::string suffix = ".k" + std::to_string(k);
    const double seconds = median(level.seconds);
    std::vector<double> spill_rate;
    for (std::size_t i = 0; i < level.seconds.size(); ++i) {
      spill_rate.push_back(level.disk_mib[i] / level.seconds[i]);
    }
    report.add("fmcf.level_s" + suffix, seconds, "s");
    report.add("fmcf.rows_per_s" + suffix,
               seconds > 0 ? level.rows_in / seconds : 0.0, "1/s");
    report.add("fmcf.cpu_util" + suffix, median(level.cpu_util), "ratio");
    report.add("fmcf.frontier_rows" + suffix, level.frontier_rows, "count");
    report.add("store.heap_mib" + suffix, median(level.heap_mib), "MiB");
    report.add("spill.disk_mib" + suffix, median(level.disk_mib), "MiB");
    report.add("spill.mib_per_s" + suffix, median(spill_rate), "MiB/s");
  }
}

void emit_shard_balance(Report& report, const FmcfEnumerator& closure,
                        std::uint64_t seed) {
  const qsyn::mvl::PatternDomain& domain = closure.library().domain();
  const std::size_t width = domain.size();
  const std::size_t shards = qsyn::synth::resolve_shards(0, closure.threads());
  const qsyn::synth::ShardedPermStore router(width, shards);
  const std::size_t label_bytes = qsyn::synth::FlatPermStore(width).label_bytes();
  std::vector<std::uint8_t> row(width * label_bytes);
  constexpr std::size_t kSample = 2048;
  for (unsigned k = 1; k <= std::min(closure.levels_done(), kMaxLevel); ++k) {
    const std::size_t rows = closure.stats()[k - 1].frontier;
    std::vector<double> per_shard(shards, 0.0);
    Prng prng(derive_seed(seed, 1000 + k));
    const std::size_t samples = std::min(rows, kSample);
    for (std::size_t i = 0; i < samples; ++i) {
      const std::size_t r = rows <= kSample ? i : prng.below(rows);
      const auto images =
          closure.witness_for_row(k, r).to_permutation(domain).images1();
      for (std::size_t s = 0; s < width; ++s) {
        qsyn::synth::FlatPermStore::write_label(row.data(), s, label_bytes,
                                                images[s] - 1);  // 0-based
      }
      per_shard[router.shard_of(row.data())] += 1.0;
    }
    const double mean = static_cast<double>(samples) / static_cast<double>(shards);
    report.add("store.shard_max_over_mean.k" + std::to_string(k),
               samples == 0 ? 0.0
                            : *std::max_element(per_shard.begin(), per_shard.end()) /
                                  mean,
               "ratio");
  }
  report.add("store.shards", static_cast<double>(shards), "count");
}

namespace {

/// What distinguishes the two closure workloads.
struct ClosureSpec {
  std::size_t wires = 3;
  unsigned levels = 7;
  ClosureConfig config;
  /// Reference |G[k]| for k = 1..levels, and |B[levels]| when pinned.
  std::vector<std::size_t> g_counts;
  std::optional<std::size_t> last_frontier;
};

void check_counts(Report& report, const FmcfEnumerator& closure,
                  const ClosureSpec& spec) {
  bool ok = closure.levels_done() == spec.levels;
  for (unsigned k = 1; ok && k <= spec.levels; ++k) {
    ok = closure.stats()[k - 1].g_new == spec.g_counts[k - 1];
  }
  if (ok && spec.last_frontier) {
    ok = closure.stats().back().frontier == *spec.last_frontier;
  }
  report.check(ok, "closure level counts differ from the reference");
}

struct Phase {
  double wall_s = 0.0;
  std::vector<double> latencies_us;
  double cpu_per_wall = 0.0;
};

/// Repeated full closures for `seconds` (at least two).
Phase closure_phase(const GateLibrary& library, const ClosureSpec& spec,
                    double seconds, Report& report, ClosureLevels* levels,
                    Tracer* tracer, std::optional<FmcfEnumerator>* keep_last) {
  Phase phase;
  const double cpu0 = process_cpu_s();
  const std::uint64_t start = now_ns();
  while (phase.latencies_us.size() < 2 || seconds_since(start) < seconds) {
    const std::uint64_t t0 = now_ns();
    FmcfEnumerator closure(library, spec.config);
    if (levels != nullptr) {
      levels->run(closure, spec.levels, tracer);
    } else {
      closure.run_to(spec.levels);
    }
    phase.latencies_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    check_counts(report, closure, spec);
    if (keep_last != nullptr) keep_last->emplace(std::move(closure));
  }
  phase.wall_s = seconds_since(start);
  phase.cpu_per_wall = (process_cpu_s() - cpu0) / phase.wall_s;
  return phase;
}

Report run_closure_workload(const RunOptions& options, const ClosureSpec& spec) {
  Report report;
  std::vector<double> setup_s;
  std::optional<GateLibrary> library;
  while (more_setup(setup_s)) {
    const std::uint64_t t0 = now_ns();
    library.emplace(GateLibrary::standard(spec.wires));
    // A warm-up closure: it faults in the allocator arenas and the spill
    // directory the timed closures reuse.
    FmcfEnumerator closure(*library, spec.config);
    closure.run_to(spec.levels);
    check_counts(report, closure, spec);
    setup_s.push_back(seconds_since(t0));
  }

  if (!options.trace) {
    const Phase phase = closure_phase(*library, spec, options.seconds, report,
                                      nullptr, nullptr, nullptr);
    add_op_metrics(report, op_stats(phase.latencies_us, phase.wall_s));
    add_common_metrics(report, setup_s, peak_rss_mib());
    return report;
  }

  const Phase untraced = closure_phase(*library, spec, options.seconds / 2,
                                       report, nullptr, nullptr, nullptr);
  Tracer tracer(1);
  ClosureLevels levels;
  std::optional<FmcfEnumerator> last;
  const Phase traced = closure_phase(*library, spec, options.seconds / 2,
                                     report, &levels, &tracer, &last);
  levels.emit(report);
  emit_shard_balance(report, *last, options.seed);
  report.add("proc.cpu_per_wall", traced.cpu_per_wall, "ratio");
  add_trace_ratios(report, op_stats(untraced.latencies_us, untraced.wall_s),
                   op_stats(traced.latencies_us, traced.wall_s));
  tracer.write(options.scratch_dir + "/trace.json");
  return report;
}

}  // namespace

Report run_table2_n3(const RunOptions& options) {
  ClosureSpec spec;
  spec.wires = 3;
  spec.levels = 7;
  spec.g_counts = {6, 24, 51, 84, 156, 398, 540};  // Table 2, k = 1..7
  return run_closure_workload(options, spec);
}

Report run_outofcore_n5(const RunOptions& options) {
  ClosureSpec spec;
  spec.wires = 5;
  spec.levels = 3;
  spec.config.spill_budget_bytes = std::size_t(32) << 20;
  spec.config.spill_dir = options.scratch_dir + "/spill";
  std::filesystem::create_directories(spec.config.spill_dir);
  spec.g_counts = {20, 260, 2570};
  spec.last_frontier = 44350;
  return run_closure_workload(options, spec);
}

}  // namespace perfbench
