// serve_automata: the multi-tenant AutomataService under closed-loop load.
//
// The fleet: kGroups tenant groups, each of automaton tenants on random
// reasonable n = 2, 3, 4 cascades, one controlled-coin QRNG tenant (n = 2 or
// 3), and one churn slot whose automaton retires every kChurnEvery requests
// and is replaced by a circuit synthesized through a CatalogServer over the
// cb = 7 closure. The groups are split over one service shard per CPU: each
// shard is its own AutomataService, with a single-threaded engine, fed by one
// submitter thread that calls submit() one request at a time, round-robin
// over the shard's tenants. Each tenant's request stream (~2 % backend
// flips, ~20 % distribution requests) comes from the benchmark's own
// generator.
//
// Why shards rather than one service: one service fed by a submitter per CPU,
// with the engine's pool on every CPU, measured the scheduler. On a shared
// 4-CPU host the combining queue's futex handoffs took as much system time as
// the requests took user time, and requests/s spread by half its median
// between runs. A single submitter was free of that but swung ±20 % with the
// load on whichever CPU it ran; independent shards average over the CPUs.
//
// The cb = 7 catalog dominates set-up time and peak RSS. With a cb = 5
// catalog both were a few MiB / ms, and peak RSS swung 13-16 MiB between runs
// with how many malloc arenas the submitter threads happened to create.
//
// Checks: every response is kOk, and the first kReplayPrefix outcomes of
// every tenant incarnation are reproduced exactly by a batched replay of the
// shard's traces on a fresh service with the same seed and the same tenant
// add order — the service's determinism guarantee.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "automata/automaton.h"
#include "automata/qrng.h"
#include "closure_levels.h"
#include "gates/library.h"
#include "gen.h"
#include "perm/permutation.h"
#include "serve/automata_service.h"
#include "sim/batch.h"
#include "synth/catalog_server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using qsyn::automata::ControlledQrng;
using qsyn::automata::MeasurementBackend;
using qsyn::automata::QuantumAutomaton;
using qsyn::gates::Cascade;
using qsyn::gates::GateLibrary;
using qsyn::serve::AutomataService;
using qsyn::serve::Request;
using qsyn::serve::RequestKind;
using qsyn::serve::Response;
using qsyn::serve::ResponseStatus;

/// Requests one churn-slot tenant serves before it is replaced.
constexpr std::uint64_t kChurnEvery = 20000;

/// Leading requests of each tenant incarnation whose outcomes the replay
/// checks: replaying every request took twice as long as serving it.
constexpr std::uint64_t kReplayPrefix = 2000;

/// Tenant groups in the fleet.
constexpr std::size_t kGroups = 8;

/// Gates in each automaton tenant's random circuit.
constexpr std::size_t kCascadeLength = 6;

/// One tenant incarnation: tenant group, slot, churn generation.
struct InstanceKey {
  std::size_t group = 0;
  std::size_t slot = 0;
  std::size_t generation = 0;
  friend bool operator<(const InstanceKey& a, const InstanceKey& b) {
    return std::tie(a.group, a.slot, a.generation) <
           std::tie(b.group, b.slot, b.generation);
  }
};

/// An independent seed per (purpose, tenant incarnation).
std::uint64_t key_seed(std::uint64_t root, std::uint64_t purpose,
                       const InstanceKey& key) {
  std::uint64_t seed = derive_seed(root, purpose);
  for (const std::size_t part : {key.group, key.slot, key.generation}) {
    seed = derive_seed(seed, part);
  }
  return seed;
}

/// What a tenant serves: an automaton circuit (1 state wire) or a QRNG.
struct TenantSpec {
  std::optional<Cascade> automaton;
  std::optional<ControlledQrng> qrng;
  bool churns = false;

  [[nodiscard]] std::uint32_t input_words() const {
    return automaton ? std::uint32_t(1) << (automaton->wires() - 1)
                     : std::uint32_t(1) << qrng->circuit().wires();
  }
  std::uint64_t add_to(AutomataService& service) const {
    return automaton ? service.add_automaton(QuantumAutomaton(*automaton, 1))
                     : service.add_qrng(*qrng);
  }
};

Cascade random_reasonable_cascade(Prng& prng, const GateLibrary& library,
                                  std::size_t length) {
  Cascade cascade(library.domain().wires());
  for (std::size_t i = 0; i < length; ++i) {
    for (int tries = 0; tries < 64; ++tries) {
      Cascade extended = cascade;
      extended.append(library.gate(prng.below(library.size())));
      if (extended.is_reasonable(library.domain())) {
        cascade = std::move(extended);
        break;
      }
    }
  }
  return cascade;
}

/// The set-up product: libraries, the churn catalog, and every slot's
/// initial tenant.
struct Fleet {
  std::uint64_t seed = 0;
  std::vector<GateLibrary> libraries;  // n = 2, 3, 4
  std::unique_ptr<qsyn::synth::CatalogServer> catalog;
  std::vector<qsyn::perm::Permutation> churn_targets;
  std::vector<std::vector<TenantSpec>> slots;  // [group][slot]

  [[nodiscard]] const GateLibrary& library(std::size_t wires) const {
    return libraries[wires - 2];
  }

  /// A churn slot's tenant for `key`: an automaton over a circuit
  /// synthesized through the catalog.
  [[nodiscard]] TenantSpec churn_spec(const InstanceKey& key) const {
    const std::uint64_t pick = key_seed(seed, 1, key);
    TenantSpec spec;
    spec.automaton =
        catalog->synthesize(churn_targets[pick % churn_targets.size()])->circuit;
    spec.churns = true;
    return spec;
  }

  /// The tenant of `key`: the slot's initial spec, or a later churn
  /// generation.
  [[nodiscard]] TenantSpec spec_of(const InstanceKey& key) const {
    return key.generation == 0 ? slots[key.group][key.slot] : churn_spec(key);
  }
};

Fleet build_fleet(std::uint64_t seed, ClosureLevels& levels, Tracer* tracer) {
  Fleet fleet;
  fleet.seed = seed;
  for (std::size_t wires = 2; wires <= 4; ++wires) {
    fleet.libraries.push_back(GateLibrary::standard(wires));
  }
  qsyn::synth::FmcfEnumerator closure(fleet.library(3));
  levels.run(closure, kMaxLevel, tracer);
  fleet.catalog =
      std::make_unique<qsyn::synth::CatalogServer>(std::move(closure));

  // Churn targets: NCT netlists whose cost is within the catalog.
  const QueryStreams candidates = make_query_streams(derive_seed(seed, 42), 1, 512);
  for (const Images8& images : candidates.targets) {
    auto target = qsyn::perm::Permutation::from_images0(
        std::vector<std::uint32_t>(images.begin(), images.end()));
    if (fleet.catalog->locate(target)) fleet.churn_targets.push_back(target);
  }

  std::vector<ControlledQrng> qrngs;
  for (std::size_t wires = 2; wires <= 3; ++wires) {
    auto qrng = ControlledQrng::synthesize(
        fleet.library(wires), qsyn::automata::controlled_coin_spec(wires));
    if (!qrng) throw std::runtime_error("controlled-coin QRNG must synthesize");
    qrngs.push_back(std::move(*qrng));
  }

  Prng prng(derive_seed(seed, 43));
  fleet.slots.resize(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t wires = 2; wires <= 4; ++wires) {
      TenantSpec spec;
      spec.automaton = random_reasonable_cascade(prng, fleet.library(wires),
                                                 kCascadeLength);
      fleet.slots[g].push_back(std::move(spec));
    }
    TenantSpec qrng;
    qrng.qrng = qrngs[g % 2];
    fleet.slots[g].push_back(std::move(qrng));
    fleet.slots[g].push_back(fleet.churn_spec({g, fleet.slots[g].size(), 0}));
  }
  return fleet;
}

/// A live tenant on the submitter side: its request generator, backend
/// toggle state and the digest of its first kReplayPrefix outcomes.
struct Instance {
  InstanceKey key;
  std::uint64_t id = 0;
  bool qrng = false;
  bool churns = false;
  TenantTraffic traffic{0, 1};
  MeasurementBackend backend = MeasurementBackend::kMultiValued;
  std::uint64_t requests = 0;
  Digest digest;

  Instance() = default;
  Instance(const InstanceKey& k, const TenantSpec& spec, std::uint64_t tenant_id,
           std::uint64_t root_seed)
      : key(k),
        id(tenant_id),
        qrng(spec.qrng.has_value()),
        churns(spec.churns),
        traffic(key_seed(root_seed, 2, k), spec.input_words()) {}

  Request next_request() {
    const TrafficItem item = traffic.next();
    Request request;
    request.tenant = id;
    request.input_bits = item.input;
    switch (item.kind) {
      case TrafficKind::kFlip:
        backend = backend == MeasurementBackend::kMultiValued
                      ? MeasurementBackend::kHilbert
                      : MeasurementBackend::kMultiValued;
        request.kind = RequestKind::kSetBackend;
        request.backend = backend;
        break;
      case TrafficKind::kDistribution:
        request.kind = RequestKind::kDistribution;
        break;
      case TrafficKind::kStepOrSample:
        request.kind = qrng ? RequestKind::kSample : RequestKind::kStep;
        break;
    }
    return request;
  }

  void record(const Response& response) {
    if (++requests > kReplayPrefix) return;
    digest.add(static_cast<std::uint64_t>(response.status));
    digest.add(response.word);
    digest.add(response.distribution.size());
    for (const double p : response.distribution) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &p, sizeof bits);
      digest.add(bits);
    }
  }
};

/// One service shard's part of a timed phase.
struct ShardRun {
  std::uint64_t requests = 0;
  std::uint64_t not_ok = 0;
  std::optional<WindowedLatency> latencies;
  std::vector<InstanceKey> add_order;
  // Checked requests (the first kReplayPrefix) and their digest.
  std::map<InstanceKey, std::pair<std::uint64_t, std::uint64_t>> outcomes;
  qsyn::serve::ServiceStats stats;
  qsyn::sim::UnitaryCache::Stats engine_cache;
};

struct ServePhase {
  double wall_s = 0.0;
  double cpu_per_wall = 0.0;
  std::vector<ShardRun> shards;

  [[nodiscard]] OpStats op_stats() const {
    std::vector<const WindowedLatency*> windows;
    for (const ShardRun& shard : shards) windows.push_back(&*shard.latencies);
    return windowed_stats(windows);
  }
};

AutomataService::Options service_options(std::uint64_t seed, std::size_t shard) {
  AutomataService::Options options;
  options.seed = derive_seed(derive_seed(seed, 7), shard);
  options.sim.threads = 1;  // no engine pool: the submitter's thread only
  return options;
}

/// Serves shard `shard` of `shards` — the groups g with g % shards == shard —
/// on its own service from the calling thread. `arrive` is called once the
/// tenants are added and returns the phase's start.
ShardRun serve_shard(const Fleet& fleet, std::size_t shard, std::size_t shards,
                     double seconds, const std::function<std::uint64_t()>& arrive,
                     Tracer* tracer) {
  ShardRun run;
  AutomataService service(service_options(fleet.seed, shard));
  std::vector<Instance> live;
  for (std::size_t g = shard; g < fleet.slots.size(); g += shards) {
    for (std::size_t s = 0; s < fleet.slots[g].size(); ++s) {
      const InstanceKey key{g, s, 0};
      const TenantSpec& spec = fleet.slots[g][s];
      live.emplace_back(key, spec, spec.add_to(service), fleet.seed);
      run.add_order.push_back(key);
    }
  }

  std::vector<Instance> retired;
  const std::uint64_t start = arrive();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  run.latencies.emplace(start, seconds);
  for (std::size_t i = 0;; ++i) {
    Instance& instance = live[i % live.size()];
    const Request request = instance.next_request();
    const std::uint64_t t0 = now_ns();
    const Response response = service.submit(request);
    const std::uint64_t t1 = now_ns();
    run.latencies->add(t1, t1 - t0);
    if (tracer != nullptr) {
      tracer->record(static_cast<std::uint32_t>(shard), "serve/automata_service.submit",
                     t0, t1, instance.id);
    }
    if (response.status != ResponseStatus::kOk) ++run.not_ok;
    instance.record(response);
    if (instance.churns && instance.requests == kChurnEvery) {
      service.remove_tenant(instance.id);
      InstanceKey next = instance.key;
      ++next.generation;
      const TenantSpec spec = fleet.spec_of(next);
      retired.push_back(std::move(instance));
      instance = Instance(next, spec, spec.add_to(service), fleet.seed);
      run.add_order.push_back(next);
    }
    if (t1 >= deadline) break;
  }
  run.stats = service.stats();
  run.engine_cache = service.engine_cache_stats();
  for (const auto* group : {&live, &retired}) {
    for (const Instance& instance : *group) {
      run.requests += instance.requests;
      run.outcomes[instance.key] = {std::min(instance.requests, kReplayPrefix),
                                    instance.digest.value()};
    }
  }
  return run;
}

/// Service shards: one per CPU, at most one per tenant group.
std::size_t shard_count() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kGroups);
}

ServePhase serve_phase(const Fleet& fleet, double seconds, Tracer* tracer) {
  ServePhase phase;
  const std::size_t shards = shard_count();
  phase.shards.resize(shards);
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::uint64_t> start{0};
  const auto arrive = [&] {  // the last shard to arrive starts the clock
    if (arrived.fetch_add(1) + 1 == shards) start.store(now_ns());
    while (start.load() == 0) std::this_thread::yield();
    return start.load();
  };
  const double cpu0 = process_cpu_s();
  std::vector<std::thread> submitters;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    submitters.emplace_back([&, shard] {
      phase.shards[shard] = serve_shard(fleet, shard, shards, seconds, arrive, tracer);
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  phase.wall_s = seconds_since(start.load());
  phase.cpu_per_wall = (process_cpu_s() - cpu0) / phase.wall_s;
  return phase;
}

/// Batched replay of one shard on a fresh service: tenants added in the
/// timed phase's add order, the checked prefix of every tenant's trace
/// re-submitted in round-robin batches. Returns the checked requests whose
/// tenant stream did not reproduce.
std::uint64_t replay(const Fleet& fleet, std::size_t shard, const ShardRun& run) {
  AutomataService service(service_options(fleet.seed, shard));
  std::vector<Instance> instances;
  std::vector<std::uint64_t> budget;
  std::uint64_t mismatched = 0;
  for (const InstanceKey& key : run.add_order) {
    const TenantSpec spec = fleet.spec_of(key);
    instances.emplace_back(key, spec, spec.add_to(service), fleet.seed);
    budget.push_back(run.outcomes.at(key).first);
  }
  std::vector<Request> batch;
  std::vector<std::size_t> owners;
  for (;;) {
    batch.clear();
    owners.clear();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (instances[i].requests >= budget[i]) continue;
      batch.push_back(instances[i].next_request());
      owners.push_back(i);
    }
    if (batch.empty()) break;
    const std::vector<Response> responses = service.submit_batch(batch);
    for (std::size_t j = 0; j < responses.size(); ++j) {
      instances[owners[j]].record(responses[j]);
    }
  }
  for (const Instance& instance : instances) {
    const auto& [requests, digest] = run.outcomes.at(instance.key);
    if (instance.requests != requests || instance.digest.value() != digest) {
      mismatched += requests;
    }
  }
  return mismatched;
}

void check_phase(Report& report, const Fleet& fleet, const ServePhase& phase) {
  for (std::size_t shard = 0; shard < phase.shards.size(); ++shard) {
    const ShardRun& run = phase.shards[shard];
    report.tally(run.requests, run.not_ok, "a serve response was not kOk");
    report.tally(0, replay(fleet, shard, run),
                 "a tenant's outcome stream did not reproduce in replay");
  }
}

/// sim.run_us_per_job: BatchSimulator::run over every fleet circuit and
/// basis input, outside the service, with the service's engine options.
double sim_us_per_job(const Fleet& fleet, Tracer& tracer) {
  std::vector<Cascade> circuits;
  for (const auto& slots : fleet.slots) {
    for (const TenantSpec& spec : slots) {
      circuits.push_back(spec.automaton ? *spec.automaton : spec.qrng->circuit());
    }
  }
  std::vector<qsyn::sim::SimJob> jobs;
  for (const Cascade& c : circuits) {
    for (std::uint32_t bits = 0; bits < (1u << c.wires()); ++bits) {
      jobs.push_back({&c, bits});
    }
  }
  qsyn::sim::BatchSimulator engine(service_options(fleet.seed, 0).sim);
  std::vector<double> per_job_us;
  const std::uint64_t start = now_ns();
  while (per_job_us.size() < 5 || seconds_since(start) < 0.25) {
    const std::uint64_t t0 = now_ns();
    const auto outputs = engine.run(jobs);
    const std::uint64_t t1 = now_ns();
    tracer.record(0, "sim/batch.run", t0, t1, jobs.size());
    per_job_us.push_back(static_cast<double>(t1 - t0) * 1e-3 /
                         static_cast<double>(outputs.size()));
  }
  return median(per_job_us);
}

}  // namespace

Report run_serve_automata(const RunOptions& options) {
  Report report;
  std::optional<Tracer> tracer;
  if (options.trace) tracer.emplace(shard_count());
  ClosureLevels levels;
  std::vector<double> setup_s;
  std::optional<Fleet> fleet;
  while (more_setup(setup_s)) {
    fleet.reset();
    const std::uint64_t t0 = now_ns();
    fleet.emplace(build_fleet(options.seed, levels, tracer ? &*tracer : nullptr));
    setup_s.push_back(seconds_since(t0));
  }

  const ServePhase first = serve_phase(
      *fleet, options.trace ? options.seconds / 2 : options.seconds, nullptr);
  const double serving_rss = peak_rss_mib();  // before the replay's service
  check_phase(report, *fleet, first);
  if (!options.trace) {
    add_op_metrics(report, first.op_stats());
    add_common_metrics(report, setup_s, serving_rss);
    return report;
  }

  const ServePhase traced = serve_phase(*fleet, options.seconds / 2, &*tracer);
  check_phase(report, *fleet, traced);
  levels.emit(report);
  // Service counters summed over the shards; per-kind latencies are the
  // median of the shards' p50s.
  qsyn::serve::ServiceStats stats;
  qsyn::sim::UnitaryCache::Stats cache;
  std::vector<double> step_p50, sample_p50, distribution_p50;
  for (const ShardRun& run : traced.shards) {
    stats.requests += run.stats.requests;
    stats.combine_rounds += run.stats.combine_rounds;
    stats.engine_batches += run.stats.engine_batches;
    stats.engine_jobs += run.stats.engine_jobs;
    step_p50.push_back(run.stats.step.p50_ns * 1e-3);
    sample_p50.push_back(run.stats.sample.p50_ns * 1e-3);
    distribution_p50.push_back(run.stats.distribution.p50_ns * 1e-3);
    cache.hits += run.engine_cache.hits;
    cache.misses += run.engine_cache.misses;
  }
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report.add("serve.requests_per_round",
             ratio(stats.requests, stats.combine_rounds), "ratio");
  report.add("serve.combine_rounds", static_cast<double>(stats.combine_rounds), "count");
  report.add("serve.jobs_per_engine_batch",
             ratio(stats.engine_jobs, stats.engine_batches), "ratio");
  report.add("serve.engine_batches", static_cast<double>(stats.engine_batches), "count");
  report.add("serve.step_p50_us", median(step_p50), "us");
  report.add("serve.sample_p50_us", median(sample_p50), "us");
  report.add("serve.distribution_p50_us", median(distribution_p50), "us");
  report.add("serve.requests", static_cast<double>(stats.requests), "count");
  report.add("sim.unitary_hit_rate",
             ratio(cache.hits, static_cast<double>(cache.hits + cache.misses)),
             "ratio");
  report.add("sim.unitary_lookups", static_cast<double>(cache.hits + cache.misses),
             "count");
  report.add("sim.run_us_per_job", sim_us_per_job(*fleet, *tracer), "us");
  report.add("proc.cpu_per_wall", traced.cpu_per_wall, "ratio");
  add_trace_ratios(report, first.op_stats(), traced.op_stats());
  tracer->write(options.scratch_dir + "/trace.json");
  return report;
}

}  // namespace perfbench
