// Unit tests for the serving layer: the common/metrics observability
// substrate and the multi-tenant AutomataService front end — request
// routing, validation, per-tenant backend switching, fold sharing, failure
// and removal under load, and above all serving *determinism*: the same seed
// and the same per-tenant request trace must yield identical per-tenant
// outcome streams no matter how requests pack into batches, which threads
// submit them, or which measurement backend computes the distributions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "automata/automaton.h"
#include "automata/qrng.h"
#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "serve/automata_service.h"
#include "sim/fused.h"

namespace qsyn::serve {
namespace {

using automata::ControlledQrng;
using automata::MeasurementBackend;
using automata::QuantumAutomaton;

// --- metrics -----------------------------------------------------------------

TEST(Metrics, CounterAddsAndResets) {
  metrics::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(5);
  EXPECT_EQ(counter.value(), 6u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Metrics, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < metrics::LatencyRecorder::kSubBuckets; ++v) {
    EXPECT_EQ(metrics::LatencyRecorder::bucket_for_value(v), v);
    EXPECT_EQ(metrics::LatencyRecorder::value_for_bucket(v), v);
  }
}

TEST(Metrics, BucketRoundTripBoundsTheError) {
  // value_for_bucket(bucket_for_value(v)) is the quantile the recorder
  // reports for v: an overestimate by at most one sub-bucket (12.5%).
  std::vector<std::uint64_t> values = {8,   9,    15,   16,   17, 100,
                                       103, 1000, 4096, 4097, 65535};
  for (int p = 3; p < 63; ++p) {
    values.push_back(std::uint64_t(1) << p);
    values.push_back((std::uint64_t(1) << p) + 1);
    values.push_back((std::uint64_t(1) << p) - 1);
  }
  for (const std::uint64_t v : values) {
    const std::size_t bucket = metrics::LatencyRecorder::bucket_for_value(v);
    ASSERT_LT(bucket, metrics::LatencyRecorder::kBucketCount) << v;
    const std::uint64_t upper =
        metrics::LatencyRecorder::value_for_bucket(bucket);
    EXPECT_GE(upper, v) << v;
    EXPECT_LE(upper - v, v / 8 + 1) << v;
    // Buckets are intervals: the reported upper bound maps back to the
    // same bucket.
    EXPECT_EQ(metrics::LatencyRecorder::bucket_for_value(upper), bucket) << v;
  }
}

TEST(Metrics, SnapshotReportsCountsQuantilesAndMax) {
  metrics::LatencyRecorder recorder;
  // 90 fast observations at 1ns, 10 slow at 1000ns.
  for (int i = 0; i < 90; ++i) recorder.record_ns(1);
  for (int i = 0; i < 10; ++i) recorder.record_ns(1000);
  const metrics::LatencySnapshot snap = recorder.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum_ns, 90u + 10u * 1000u);
  EXPECT_EQ(snap.max_ns, 1000u);
  EXPECT_DOUBLE_EQ(snap.mean_ns, (90.0 + 10.0 * 1000.0) / 100.0);
  // p50 and p90 land in the exact 1ns bucket; p99 in 1000's bucket, whose
  // upper bound overestimates by <= 12.5%.
  EXPECT_EQ(snap.p50_ns, 1u);
  EXPECT_EQ(snap.p90_ns, 1u);
  EXPECT_GE(snap.p99_ns, 1000u);
  EXPECT_LE(snap.p99_ns, 1126u);
  EXPECT_GT(snap.elapsed_seconds, 0.0);
  EXPECT_GT(snap.rate_per_sec, 0.0);
}

TEST(Metrics, EmptyRecorderSnapshotsToZeros) {
  metrics::LatencyRecorder recorder;
  const metrics::LatencySnapshot snap = recorder.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum_ns, 0u);
  EXPECT_EQ(snap.max_ns, 0u);
  EXPECT_EQ(snap.p50_ns, 0u);
  EXPECT_EQ(snap.p99_ns, 0u);
  EXPECT_DOUBLE_EQ(snap.mean_ns, 0.0);
}

TEST(Metrics, ResetZeroesEverything) {
  metrics::LatencyRecorder recorder;
  recorder.record_ns(123);
  recorder.reset();
  const metrics::LatencySnapshot snap = recorder.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum_ns, 0u);
  EXPECT_EQ(snap.max_ns, 0u);
}

TEST(Metrics, ScopedTimerRecordsOnDestruction) {
  metrics::LatencyRecorder recorder;
  {
    metrics::ScopedTimer timer(recorder);
  }
  EXPECT_EQ(recorder.snapshot().count, 1u);
}

TEST(Metrics, ConcurrentRecordersLoseNothing) {
  metrics::LatencyRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record_ns(static_cast<std::uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const metrics::LatencySnapshot snap = recorder.snapshot();
  EXPECT_EQ(snap.count, std::uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(snap.max_ns, 3001u);
}

// --- service fixtures --------------------------------------------------------

// A 3-wire automaton: wire A is the state bit; VAC makes the next state a
// fair coin whenever input bit C is 1 (same machine as the Figure-3 tests).
gates::Cascade coin_circuit() { return gates::Cascade::parse("VAC", 3); }
// Deterministic state toggle on input B (V_AB * V_AB == CNOT on binary).
gates::Cascade flip_circuit() { return gates::Cascade::parse("VAB*VAB", 3); }

ControlledQrng two_wire_qrng() {
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(2);
  const gates::GateLibrary library(domain);
  auto qrng =
      ControlledQrng::synthesize(library, automata::controlled_coin_spec(2));
  EXPECT_TRUE(qrng.has_value());
  return *qrng;
}

Request step_request(std::uint64_t tenant, std::uint32_t input) {
  Request request;
  request.kind = RequestKind::kStep;
  request.tenant = tenant;
  request.input_bits = input;
  return request;
}

Request sample_request(std::uint64_t tenant, std::uint32_t input) {
  Request request;
  request.kind = RequestKind::kSample;
  request.tenant = tenant;
  request.input_bits = input;
  return request;
}

Request distribution_request(std::uint64_t tenant, std::uint32_t input) {
  Request request;
  request.kind = RequestKind::kDistribution;
  request.tenant = tenant;
  request.input_bits = input;
  return request;
}

Request backend_request(std::uint64_t tenant, MeasurementBackend backend) {
  Request request;
  request.kind = RequestKind::kSetBackend;
  request.tenant = tenant;
  request.backend = backend;
  return request;
}

// --- service basics ----------------------------------------------------------

TEST(AutomataService, RoutesStepsAndTracksState) {
  AutomataService service;
  const std::uint64_t id =
      service.add_automaton(QuantumAutomaton(flip_circuit(), 1));
  EXPECT_EQ(service.tenant_count(), 1u);

  // Input B=1 (word 0b10) toggles the state deterministically each step.
  Response first = service.submit(step_request(id, 0b10));
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  EXPECT_EQ(first.word >> 2, 1u);  // next state = 1
  Response second = service.submit(step_request(id, 0b10));
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_EQ(second.word >> 2, 0u);  // toggled back

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.step.count, 2u);
  EXPECT_EQ(stats.all.count, 2u);
}

TEST(AutomataService, DistributionMatchesTheMachine) {
  AutomataService service;
  QuantumAutomaton machine(coin_circuit(), 1);
  const std::uint64_t id = service.add_automaton(machine);

  const Response response = service.submit(distribution_request(id, 0b01));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.distribution, machine.output_distribution(0, 0b01));
}

TEST(AutomataService, QrngSamplesAndDistributions) {
  AutomataService service;
  const std::uint64_t id = service.add_qrng(two_wire_qrng());

  const Response dist = service.submit(distribution_request(id, 0b10));
  ASSERT_EQ(dist.status, ResponseStatus::kOk);
  ASSERT_EQ(dist.distribution.size(), 4u);
  EXPECT_DOUBLE_EQ(dist.distribution[0b10], 0.5);
  EXPECT_DOUBLE_EQ(dist.distribution[0b11], 0.5);

  // Samples only ever land on positive-probability outcomes.
  for (int i = 0; i < 64; ++i) {
    const Response sample = service.submit(sample_request(id, 0b10));
    ASSERT_EQ(sample.status, ResponseStatus::kOk);
    EXPECT_TRUE(sample.word == 0b10 || sample.word == 0b11) << sample.word;
  }
}

TEST(AutomataService, ValidatesTenantsKindsAndInputs) {
  AutomataService service;
  const std::uint64_t automaton =
      service.add_automaton(QuantumAutomaton(coin_circuit(), 1));
  const std::uint64_t qrng = service.add_qrng(two_wire_qrng());

  EXPECT_EQ(service.submit(step_request(automaton + qrng + 1, 0)).status,
            ResponseStatus::kUnknownTenant);
  EXPECT_EQ(service.submit(sample_request(automaton, 0)).status,
            ResponseStatus::kBadRequest);  // kSample needs a QRNG tenant
  EXPECT_EQ(service.submit(step_request(qrng, 0)).status,
            ResponseStatus::kBadRequest);  // kStep needs an automaton
  EXPECT_EQ(service.submit(step_request(automaton, 0b100)).status,
            ResponseStatus::kBadRequest);  // 2 input wires: inputs < 4
  EXPECT_EQ(service.submit(sample_request(qrng, 0b100)).status,
            ResponseStatus::kBadRequest);  // 2 wires: inputs < 4

  EXPECT_TRUE(service.remove_tenant(qrng));
  EXPECT_FALSE(service.remove_tenant(qrng));
  EXPECT_EQ(service.submit(sample_request(qrng, 0)).status,
            ResponseStatus::kUnknownTenant);
  EXPECT_EQ(service.tenant_count(), 1u);
  EXPECT_EQ(service.stats().rejected, 6u);
}

TEST(AutomataService, FuseBlockZeroIsRejectedAtConstruction) {
  AutomataService::Options options;
  options.sim.fuse_block = 0;
  EXPECT_THROW((void)AutomataService(options), qsyn::LogicError);
}

TEST(AutomataService, HilbertBackendSharesTheServiceEngine) {
  AutomataService service;
  const std::uint64_t id =
      service.add_automaton(QuantumAutomaton(coin_circuit(), 1));

  // MV traffic never touches the Hilbert engine.
  (void)service.submit(step_request(id, 0b01));
  EXPECT_EQ(service.engine_cache_stats().misses, 0u);
  EXPECT_EQ(service.stats().engine_batches, 0u);

  // After the flip, the first step folds the circuit through the shared
  // cache (one miss per block) and the tenant keeps that fold, so later
  // steps look nothing up.
  sim::UnitaryCache scratch;
  const std::size_t blocks =
      sim::FusedCascade(coin_circuit(), sim::kDefaultFuseBlock, scratch)
          .block_count();
  ASSERT_EQ(service.submit(backend_request(id, MeasurementBackend::kHilbert))
                .status,
            ResponseStatus::kOk);
  (void)service.submit(step_request(id, 0b01));
  const sim::UnitaryCache::Stats first = service.engine_cache_stats();
  EXPECT_EQ(first.misses, blocks);
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.entries, blocks);
  (void)service.submit(step_request(id, 0b01));
  const sim::UnitaryCache::Stats later = service.engine_cache_stats();
  EXPECT_EQ(later.hits + later.misses, first.hits + first.misses);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.engine_batches, 2u);
  EXPECT_EQ(stats.engine_jobs, 2u);

  // A second tenant on an identical circuit folds from the shared cache:
  // hits only.
  const std::uint64_t twin =
      service.add_automaton(QuantumAutomaton(coin_circuit(), 1));
  ASSERT_EQ(service.submit(backend_request(twin, MeasurementBackend::kHilbert))
                .status,
            ResponseStatus::kOk);
  (void)service.submit(step_request(twin, 0b01));
  const sim::UnitaryCache::Stats shared = service.engine_cache_stats();
  EXPECT_EQ(shared.misses, blocks);
  EXPECT_EQ(shared.hits, blocks);
  EXPECT_EQ(shared.entries, blocks);
}

TEST(AutomataService, FailedRequestLeavesTheServiceServing) {
  // A request that throws while it is served (here its tenant's first fold)
  // reaches its caller, draws nothing from the tenant's stream, and leaves
  // the service serving: the stream matches a service that never saw it.
  const auto run = [](bool fail_once) {
    AutomataService::Options options;
    options.seed = 31;
    AutomataService service(options);
    const std::uint64_t id =
        service.add_automaton(QuantumAutomaton(coin_circuit(), 1));
    std::vector<std::uint32_t> words;
    for (int i = 0; i < 8; ++i) {
      words.push_back(service.submit(step_request(id, 0b01)).word);
    }
    EXPECT_EQ(service.submit(backend_request(id, MeasurementBackend::kHilbert))
                  .status,
              ResponseStatus::kOk);
    if (fail_once) {
      service.engine_cache().set_fold_hook(
          [] { throw std::runtime_error("fold failed"); });
      EXPECT_THROW((void)service.submit(step_request(id, 0b01)),
                   std::runtime_error);
      service.engine_cache().set_fold_hook(nullptr);
    }
    for (int i = 0; i < 16; ++i) {
      const Response response = service.submit(step_request(id, 0b01));
      EXPECT_EQ(response.status, ResponseStatus::kOk);
      words.push_back(response.word);
    }
    return words;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(AutomataService, RemoveTenantRacesSubmitters) {
  // Race coverage (tsan runs this suite whole-binary): submitters hammer
  // one shared tenant, flipping its backend now and then, while a churn
  // thread removes it and adds its replacement. Every request is answered,
  // and only as served or as addressed to a removed tenant.
  AutomataService service;
  std::atomic<std::uint64_t> current{
      service.add_automaton(QuantumAutomaton(coin_circuit(), 1))};
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 600;
  constexpr int kChurnEvery = 50;  // requests answered between churns
  std::atomic<int> answered{0};
  std::atomic<int> finished{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &current, &answered, &finished] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        Request request = step_request(current.load(), 0b01);
        if (i % 8 == 0) {
          request.kind = RequestKind::kSetBackend;
          request.backend = i % 16 == 0 ? MeasurementBackend::kHilbert
                                        : MeasurementBackend::kMultiValued;
        }
        const ResponseStatus status = service.submit(request).status;
        EXPECT_TRUE(status == ResponseStatus::kOk ||
                    status == ResponseStatus::kUnknownTenant)
            << static_cast<int>(status);
        answered.fetch_add(1);
      }
      finished.fetch_add(1);
    });
  }
  std::thread churn([&service, &current, &answered, &finished] {
    for (int mark = kChurnEvery; finished.load() < kSubmitters;) {
      if (answered.load() < mark) {
        std::this_thread::yield();
        continue;
      }
      EXPECT_TRUE(service.remove_tenant(current.load()));
      current.store(service.add_automaton(QuantumAutomaton(coin_circuit(), 1)));
      mark += kChurnEvery;
    }
  });
  for (std::thread& submitter : submitters) submitter.join();
  churn.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests + stats.rejected,
            std::uint64_t(kSubmitters) * kPerSubmitter);
  EXPECT_EQ(service.tenant_count(), 1u);
}

TEST(AutomataService, RemoveTenantWaitsForTheRequestInFlight) {
  // A Hilbert step held inside its fold is in flight: remove_tenant must
  // not return until it has finished, and later requests find no tenant.
  AutomataService service;
  const std::uint64_t id =
      service.add_automaton(QuantumAutomaton(coin_circuit(), 1));
  ASSERT_EQ(service.submit(backend_request(id, MeasurementBackend::kHilbert))
                .status,
            ResponseStatus::kOk);
  std::atomic<bool> in_fold{false};
  std::atomic<bool> release{false};
  std::atomic<bool> removed{false};
  service.engine_cache().set_fold_hook([&in_fold, &release] {
    in_fold.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  std::thread stepper([&service, id] {
    EXPECT_EQ(service.submit(step_request(id, 0b01)).status,
              ResponseStatus::kOk);
  });
  while (!in_fold.load()) std::this_thread::yield();
  std::thread remover([&service, &removed, id] {
    EXPECT_TRUE(service.remove_tenant(id));
    removed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(removed.load());
  release.store(true);
  stepper.join();
  remover.join();
  EXPECT_TRUE(removed.load());
  EXPECT_EQ(service.submit(step_request(id, 0b01)).status,
            ResponseStatus::kUnknownTenant);
}

TEST(AutomataService, BackendsYieldIdenticalDistributions) {
  // Reasonable cascades have bit-identical MV and Hilbert distributions
  // (all amplitudes dyadic) — the property the serving determinism
  // guarantee rests on.
  AutomataService service;
  const std::uint64_t id =
      service.add_automaton(QuantumAutomaton(coin_circuit(), 1));
  for (std::uint32_t input = 0; input < 4; ++input) {
    const Response mv = service.submit(distribution_request(id, input));
    ASSERT_EQ(service.submit(backend_request(id, MeasurementBackend::kHilbert))
                  .status,
              ResponseStatus::kOk);
    const Response hilbert = service.submit(distribution_request(id, input));
    EXPECT_EQ(mv.distribution, hilbert.distribution) << input;
    ASSERT_EQ(
        service.submit(backend_request(id, MeasurementBackend::kMultiValued))
            .status,
        ResponseStatus::kOk);
  }
}

TEST(AutomataService, BatchSubmissionMatchesSequential) {
  const auto run = [](bool batched) {
    AutomataService::Options options;
    options.seed = 99;
    AutomataService service(options);
    const std::uint64_t a =
        service.add_automaton(QuantumAutomaton(coin_circuit(), 1));
    const std::uint64_t q = service.add_qrng(two_wire_qrng());
    std::vector<Request> trace;
    for (int i = 0; i < 32; ++i) {
      trace.push_back(step_request(a, 0b01));
      trace.push_back(sample_request(q, 0b10));
    }
    std::vector<std::uint32_t> words;
    if (batched) {
      for (const Response& response : service.submit_batch(trace)) {
        words.push_back(response.word);
      }
    } else {
      for (const Request& request : trace) {
        words.push_back(service.submit(request).word);
      }
    }
    return words;
  };
  EXPECT_EQ(run(true), run(false));
}

// --- serving determinism -----------------------------------------------------

// One tenant's scripted traffic: requests issued in order, outcome words
// collected in order.
struct TenantScript {
  enum class Type { kAutomaton, kFlipAutomaton, kQrng };
  Type type = Type::kAutomaton;
  std::vector<Request> requests;  // tenant ids patched in at run time
};

// Three tenants with interleaved backend flips baked into their traces.
std::vector<TenantScript> determinism_scripts() {
  std::vector<TenantScript> scripts(3);
  scripts[0].type = TenantScript::Type::kAutomaton;
  scripts[1].type = TenantScript::Type::kFlipAutomaton;
  scripts[2].type = TenantScript::Type::kQrng;
  for (int i = 0; i < 48; ++i) {
    // Tenant 0: coin automaton, input C=1; Hilbert for the middle third.
    if (i == 16) {
      scripts[0].requests.push_back(
          backend_request(0, MeasurementBackend::kHilbert));
    }
    if (i == 32) {
      scripts[0].requests.push_back(
          backend_request(0, MeasurementBackend::kMultiValued));
    }
    scripts[0].requests.push_back(step_request(0, 0b01));
    // Tenant 1: flip automaton, alternating inputs; one flip to Hilbert.
    if (i == 24) {
      scripts[1].requests.push_back(
          backend_request(0, MeasurementBackend::kHilbert));
    }
    scripts[1].requests.push_back(step_request(0, i % 2 == 0 ? 0b10 : 0b00));
    // Tenant 2: QRNG, armed and unarmed inputs; flip at the start.
    if (i == 0) {
      scripts[2].requests.push_back(
          backend_request(0, MeasurementBackend::kHilbert));
    }
    scripts[2].requests.push_back(sample_request(0, i % 4 == 0 ? 0b01 : 0b10));
  }
  return scripts;
}

// Builds the service, registers the scripted tenants (in script order, so
// rng streams reproduce), and patches tenant ids into the requests.
std::vector<std::uint64_t> register_tenants(
    AutomataService& service, std::vector<TenantScript>& scripts) {
  std::vector<std::uint64_t> ids;
  for (TenantScript& script : scripts) {
    std::uint64_t id = 0;
    switch (script.type) {
      case TenantScript::Type::kAutomaton:
        id = service.add_automaton(QuantumAutomaton(coin_circuit(), 1));
        break;
      case TenantScript::Type::kFlipAutomaton:
        id = service.add_automaton(QuantumAutomaton(flip_circuit(), 1));
        break;
      case TenantScript::Type::kQrng:
        id = service.add_qrng(two_wire_qrng());
        break;
    }
    for (Request& request : script.requests) request.tenant = id;
    ids.push_back(id);
  }
  return ids;
}

// Per-tenant outcome streams (kStep/kSample words, in request order).
using Streams = std::vector<std::vector<std::uint32_t>>;

Streams run_sequential(std::size_t engine_threads) {
  AutomataService::Options options;
  options.seed = 4242;
  options.sim.threads = engine_threads;
  AutomataService service(options);
  std::vector<TenantScript> scripts = determinism_scripts();
  register_tenants(service, scripts);
  Streams streams(scripts.size());
  // Round-robin across tenants, one request each per turn.
  for (std::size_t turn = 0;; ++turn) {
    bool any = false;
    for (std::size_t t = 0; t < scripts.size(); ++t) {
      if (turn >= scripts[t].requests.size()) continue;
      any = true;
      const Response response = service.submit(scripts[t].requests[turn]);
      EXPECT_EQ(response.status, ResponseStatus::kOk);
      if (scripts[t].requests[turn].kind != RequestKind::kSetBackend) {
        streams[t].push_back(response.word);
      }
    }
    if (!any) break;
  }
  return streams;
}

Streams run_one_batch() {
  AutomataService::Options options;
  options.seed = 4242;
  AutomataService service(options);
  std::vector<TenantScript> scripts = determinism_scripts();
  register_tenants(service, scripts);
  // All tenants' traffic in one submit_batch, tenant-major order (per-tenant
  // order is what matters; the cross-tenant packing must not).
  std::vector<Request> flat;
  std::vector<std::size_t> owner;
  for (std::size_t t = 0; t < scripts.size(); ++t) {
    for (const Request& request : scripts[t].requests) {
      flat.push_back(request);
      owner.push_back(t);
    }
  }
  const std::vector<Response> responses = service.submit_batch(flat);
  Streams streams(scripts.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, ResponseStatus::kOk);
    if (flat[i].kind != RequestKind::kSetBackend) {
      streams[owner[i]].push_back(responses[i].word);
    }
  }
  return streams;
}

Streams run_threaded() {
  AutomataService::Options options;
  options.seed = 4242;
  AutomataService service(options);
  std::vector<TenantScript> scripts = determinism_scripts();
  register_tenants(service, scripts);
  Streams streams(scripts.size());
  // One submitter thread per tenant: per-tenant order is preserved by the
  // thread, cross-tenant interleaving is whatever the scheduler does, and
  // concurrent submits to different tenants run in parallel.
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < scripts.size(); ++t) {
    submitters.emplace_back([&service, &scripts, &streams, t] {
      for (const Request& request : scripts[t].requests) {
        const Response response = service.submit(request);
        EXPECT_EQ(response.status, ResponseStatus::kOk);
        if (request.kind != RequestKind::kSetBackend) {
          streams[t].push_back(response.word);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  return streams;
}

TEST(ServingDeterminism, StreamsSurviveBatchingThreadsAndBackends) {
  const Streams reference = run_sequential(1);
  ASSERT_EQ(reference.size(), 3u);
  for (const auto& stream : reference) EXPECT_EQ(stream.size(), 48u);

  // Same trace, different packing: one giant batch.
  EXPECT_EQ(run_one_batch(), reference);
  // Same trace, concurrent per-tenant submitter threads.
  EXPECT_EQ(run_threaded(), reference);
  EXPECT_EQ(run_threaded(), reference);
  // Same trace, sim.threads = 4 (serving runs on the callers' threads).
  EXPECT_EQ(run_sequential(4), reference);
}

TEST(ServingDeterminism, BackendChoiceNeverChangesTheStream) {
  // The same scripted traffic with every tenant pinned kMultiValued vs
  // pinned kHilbert: one uniform draw per step/sample over bit-identical
  // distributions, so the outcome streams match word for word.
  const auto run_pinned = [](MeasurementBackend backend) {
    AutomataService::Options options;
    options.seed = 7;
    AutomataService service(options);
    const std::uint64_t a =
        service.add_automaton(QuantumAutomaton(coin_circuit(), 1));
    const std::uint64_t f =
        service.add_automaton(QuantumAutomaton(flip_circuit(), 1));
    const std::uint64_t q = service.add_qrng(two_wire_qrng());
    for (const std::uint64_t id : {a, f, q}) {
      EXPECT_EQ(service.submit(backend_request(id, backend)).status,
                ResponseStatus::kOk);
    }
    Streams streams(3);
    for (int i = 0; i < 40; ++i) {
      streams[0].push_back(service.submit(step_request(a, 0b01)).word);
      streams[1].push_back(
          service.submit(step_request(f, i % 2 == 0 ? 0b10 : 0b01)).word);
      streams[2].push_back(
          service.submit(sample_request(q, i % 4 == 0 ? 0b01 : 0b11)).word);
    }
    return streams;
  };
  EXPECT_EQ(run_pinned(MeasurementBackend::kMultiValued),
            run_pinned(MeasurementBackend::kHilbert));
}

TEST(AutomataService, ConcurrentMixedTenantsServeConsistently) {
  // Race coverage (tsan runs this suite whole-binary): many submitter
  // threads with distinct tenants, mixed kinds, churn, and stats readers.
  AutomataService service;
  constexpr std::size_t kThreads = 4;
  std::vector<std::uint64_t> ids;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ids.push_back(service.add_automaton(QuantumAutomaton(coin_circuit(), 1)));
  }
  const std::uint64_t shared_qrng = service.add_qrng(two_wire_qrng());

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &ids, shared_qrng, t] {
      for (int i = 0; i < 64; ++i) {
        if (i == 20 || i == 40) {
          (void)service.submit(backend_request(
              ids[t], i == 20 ? MeasurementBackend::kHilbert
                              : MeasurementBackend::kMultiValued));
        }
        const Response step = service.submit(step_request(ids[t], 0b01));
        EXPECT_EQ(step.status, ResponseStatus::kOk);
        const Response sample =
            service.submit(sample_request(shared_qrng, 0b10));
        EXPECT_EQ(sample.status, ResponseStatus::kOk);
        if (i % 16 == 0) {
          (void)service.stats();
          (void)service.engine_cache_stats();
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * (64 * 2 + 2));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.all.count, stats.requests);
  EXPECT_EQ(stats.step.count, kThreads * 64u);
  EXPECT_EQ(stats.sample.count, kThreads * 64u);
}

}  // namespace
}  // namespace qsyn::serve
