// synth_queries: the user's "minimal circuit for this function" path.
//
// Set-up builds the cb = 7 closure, saves it as a catalog and reopens it in
// a fresh CatalogServer (default options, so the witness cache starts
// cold). The timed phase runs one closed-loop caller per CPU, each calling
// synthesize() on its own seeded stream of random 3..5-gate NCT netlists
// (encoded to 8-point permutations by the benchmark's own encoder). After
// it, one TopologySearchBackend::synthesize_batch answers every distinct
// target, and each target's answers are checked: the catalog and the DFS
// agree on the cost (and on "cost > 7"), both cascades realize the target
// in the Hilbert-space simulator, and every answer a caller received equals
// the verified one.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "closure_levels.h"
#include "gates/library.h"
#include "gen.h"
#include "perm/permutation.h"
#include "sim/cross_check.h"
#include "synth/catalog_server.h"
#include "synth/search/topology_search.h"
#include "workloads.h"

namespace perfbench {

namespace {

using qsyn::gates::GateLibrary;
using qsyn::perm::Permutation;
using qsyn::synth::CatalogServer;
using qsyn::synth::SynthesisResult;

constexpr std::size_t kStreamLength = std::size_t(1) << 18;

/// A fresh server over the saved catalog (default options: cold cache).
std::unique_ptr<CatalogServer> open_server(const std::string& path,
                                           const GateLibrary& library) {
  return std::make_unique<CatalogServer>(
      qsyn::synth::FmcfEnumerator::open_catalog(path, library));
}

Permutation to_permutation(const Images8& images) {
  return Permutation::from_images0(
      std::vector<std::uint32_t>(images.begin(), images.end()));
}

/// Identity of one answer; 1 = "cost > 7", 0 is reserved for "not seen".
std::uint64_t answer_digest(const std::optional<SynthesisResult>& answer) {
  if (!answer) return 1;
  Digest digest;
  digest.add(answer->cost);
  for (const qsyn::gates::Gate& gate : answer->circuit.sequence()) {
    digest.add(gate.packed());
  }
  return digest.value() < 2 ? digest.value() + 2 : digest.value();
}

struct CallerLog {
  explicit CallerLog(WindowedLatency windows) : latencies(std::move(windows)) {}
  WindowedLatency latencies;
  std::vector<std::uint64_t> digests;  // [target] first answer seen
  std::vector<std::uint32_t> counts;   // [target] queries made
  std::uint64_t queries = 0;
  std::uint64_t beyond_cb = 0;
  std::uint64_t inconsistent = 0;  // answers differing from an earlier one
};

struct QueryPhase {
  double wall_s = 0.0;
  double cpu_per_wall = 0.0;
  std::vector<CallerLog> callers;

  [[nodiscard]] std::uint64_t queries() const {
    std::uint64_t total = 0;
    for (const CallerLog& c : callers) total += c.queries;
    return total;
  }
  [[nodiscard]] OpStats stats() const {
    std::vector<const WindowedLatency*> windows;
    for (const CallerLog& c : callers) windows.push_back(&c.latencies);
    return windowed_stats(windows);
  }
};

QueryPhase query_phase(const CatalogServer& server,
                       const std::vector<Permutation>& targets,
                       const QueryStreams& streams, double seconds,
                       Tracer* tracer) {
  QueryPhase phase;
  std::atomic<std::size_t> ready{0};
  const double cpu0 = process_cpu_s();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t c = 0; c < streams.streams.size(); ++c) {
    phase.callers.emplace_back(WindowedLatency(start, seconds));
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < phase.callers.size(); ++c) {
    threads.emplace_back([&, c] {
      CallerLog& log = phase.callers[c];
      log.digests.assign(targets.size(), 0);
      log.counts.assign(targets.size(), 0);
      const std::vector<std::uint32_t>& stream = streams.streams[c];
      ready.fetch_add(1);
      while (ready.load() < phase.callers.size()) std::this_thread::yield();
      for (std::size_t i = 0;; ++i) {
        const std::uint32_t target = stream[i % stream.size()];
        const std::uint64_t t0 = now_ns();
        const std::optional<SynthesisResult> answer =
            server.synthesize(targets[target]);
        const std::uint64_t t1 = now_ns();
        log.latencies.add(t1, t1 - t0);
        if (tracer != nullptr) {
          tracer->record(static_cast<std::uint32_t>(c),
                         "synth/catalog_server.synthesize", t0, t1, target);
        }
        const std::uint64_t digest = answer_digest(answer);
        if (log.digests[target] == 0) {
          log.digests[target] = digest;
        } else if (log.digests[target] != digest) {
          ++log.inconsistent;
        }
        ++log.counts[target];
        ++log.queries;
        if (!answer) ++log.beyond_cb;
        if (t1 >= deadline) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = seconds_since(start);
  phase.cpu_per_wall = (process_cpu_s() - cpu0) / phase.wall_s;
  return phase;
}

/// What the DFS batch of verify() measured.
struct Verification {
  double search_batch_s = 0.0;
  qsyn::synth::SearchStats search;
};

/// Runs the DFS batch over every distinct target and checks each target's
/// answers (see the file comment).
Verification verify(Report& report, const GateLibrary& library,
                    const CatalogServer& server,
                    const std::vector<Permutation>& targets,
                    const QueryPhase& phase, Tracer* tracer) {
  Verification result;
  qsyn::synth::TopologySearchBackend dfs(library, qsyn::synth::SearchConfig{});
  const std::uint64_t t0 = now_ns();
  const std::vector<std::optional<SynthesisResult>> dfs_answers =
      dfs.synthesize_batch(targets);
  const std::uint64_t t1 = now_ns();
  result.search_batch_s = static_cast<double>(t1 - t0) * 1e-9;
  if (tracer != nullptr) {
    tracer->record(0, "synth/search.synthesize_batch", t0, t1, targets.size());
  }
  result.search = dfs.stats();

  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::optional<SynthesisResult> answer = server.synthesize(targets[t]);
    const std::optional<SynthesisResult>& reference = dfs_answers[t];
    bool ok = answer.has_value() == reference.has_value();
    if (ok && answer) {
      ok = answer->cost == reference->cost &&
           answer->core.size() == answer->cost &&
           qsyn::sim::realizes_permutation(answer->circuit, targets[t]) &&
           qsyn::sim::realizes_permutation(reference->circuit, targets[t]);
    }
    const std::uint64_t digest = answer_digest(answer);
    std::uint64_t queried = 0;
    for (const CallerLog& c : phase.callers) {
      if (c.digests[t] != 0 && c.digests[t] != digest) ok = false;
      queried += c.counts[t];
    }
    // The target's own check is one operation; its queries fail with it.
    report.tally(1 + queried, ok ? 0 : 1 + queried,
                 "synthesis answers for target " + std::to_string(t) +
                     " disagree with the DFS / simulator reference");
  }
  std::uint64_t inconsistent = 0;
  for (const CallerLog& c : phase.callers) inconsistent += c.inconsistent;
  report.tally(0, inconsistent, "a caller received differing answers");
  return result;
}

}  // namespace

Report run_synth_queries(const RunOptions& options) {
  Report report;
  const std::size_t callers =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  const QueryStreams streams =
      make_query_streams(options.seed, callers, kStreamLength);
  std::vector<Permutation> targets;
  for (const Images8& images : streams.targets) {
    targets.push_back(to_permutation(images));
  }

  const std::string catalog_path = options.scratch_dir + "/cb7.qsyncat";
  std::optional<Tracer> tracer;
  if (options.trace) tracer.emplace(callers);
  ClosureLevels levels;
  std::vector<double> setup_s, save_s, open_s;
  std::unique_ptr<CatalogServer> server;
  std::optional<GateLibrary> library;
  while (more_setup(setup_s)) {
    server.reset();
    const std::uint64_t t0 = now_ns();
    library.emplace(GateLibrary::standard(3));
    qsyn::synth::FmcfEnumerator closure(*library);
    levels.run(closure, kMaxLevel, tracer ? &*tracer : nullptr);
    const std::uint64_t t1 = now_ns();
    closure.save_catalog(catalog_path);
    const std::uint64_t t2 = now_ns();
    server = open_server(catalog_path, *library);
    const std::uint64_t t3 = now_ns();
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    save_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    open_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
    if (tracer) {
      tracer->record(0, "synth/catalog.save", t1, t2);
      tracer->record(0, "synth/catalog.open", t2, t3);
    }
  }

  const QueryPhase first = query_phase(
      *server, targets, streams, options.trace ? options.seconds / 2 : options.seconds,
      nullptr);
  verify(report, *library, *server, targets, first, nullptr);
  if (!options.trace) {
    add_op_metrics(report, first.stats());
    add_common_metrics(report, setup_s, peak_rss_mib());
    std::filesystem::remove(catalog_path);
    return report;
  }

  // Traced half: a fresh server, so its witness cache starts cold too.
  server = open_server(catalog_path, *library);
  const QueryPhase traced =
      query_phase(*server, targets, streams, options.seconds / 2, &*tracer);
  const CatalogServer::CacheStats cache = server->cache_stats();
  const Verification checked = verify(report, *library, *server, targets, traced, &*tracer);

  // Single-caller probes on another fresh server: locate, then a cold and a
  // warm synthesize of every in-range target.
  const CatalogServer probe = CatalogServer::open(catalog_path, *library);
  std::vector<double> locate_us, cold_us, warm_us;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::uint64_t t0 = now_ns();
    const bool stored = probe.locate(targets[t]).has_value();
    const std::uint64_t t1 = now_ns();
    locate_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    tracer->record(0, "synth/catalog_server.locate", t0, t1, t);
    if (!stored) continue;
    for (std::vector<double>* sink : {&cold_us, &warm_us}) {
      const std::uint64_t s0 = now_ns();
      const bool found = probe.synthesize(targets[t]).has_value();
      const std::uint64_t s1 = now_ns();
      report.check(found, "a located target did not synthesize");
      sink->push_back(static_cast<double>(s1 - s0) * 1e-3);
      tracer->record(0, "synth/catalog_server.synthesize", s0, s1, t);
    }
  }

  levels.emit(report);
  report.add("catalog.save_s", median(save_s), "s");
  report.add("catalog.open_ms", median(open_s) * 1e3, "ms");
  report.add("catalog.locate_us", median(locate_us), "us");
  report.add("catalog.synth_cold_us", median(cold_us), "us");
  report.add("catalog.synth_warm_us", median(warm_us), "us");
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  report.add("catalog.witness_hit_rate",
             lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0,
             "ratio");
  report.add("catalog.witness_lookups", lookups, "count");
  std::uint64_t beyond = 0;
  for (const CallerLog& c : traced.callers) beyond += c.beyond_cb;
  report.add("catalog.beyond_cb_share",
             static_cast<double>(beyond) / static_cast<double>(traced.queries()),
             "ratio");
  report.add("catalog.queries", static_cast<double>(traced.queries()), "count");
  report.add("catalog.targets", static_cast<double>(targets.size()), "count");
  report.add("search.batch_s", checked.search_batch_s, "s");
  report.add("search.nodes", static_cast<double>(checked.search.nodes), "count");
  report.add("search.leaves", static_cast<double>(checked.search.leaves), "count");
  report.add("search.pruned_visited",
             static_cast<double>(checked.search.pruned_visited), "count");
  report.add("search.pruned_commuting",
             static_cast<double>(checked.search.pruned_commuting), "count");
  report.add("search.peak_memo_rows",
             static_cast<double>(checked.search.peak_memo_rows), "count");
  report.add("proc.cpu_per_wall", traced.cpu_per_wall, "ratio");
  add_trace_ratios(report, first.stats(), traced.stats());
  tracer->write(options.scratch_dir + "/trace.json");
  std::filesystem::remove(catalog_path);
  return report;
}

}  // namespace perfbench
