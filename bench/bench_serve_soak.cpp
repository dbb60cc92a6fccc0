// bench_serve_soak: soak test of the multi-tenant serving front end
// (serve/automata_service.h). A fleet of automaton and QRNG tenants over
// mixed cascade sizes n = 2..4 serves a sustained stream of step / sample /
// distribution traffic with measurement-backend flips mid-stream and tenant
// churn (departing tenants replaced by circuits synthesized through a
// CatalogServer, so the witness cache sees serving traffic too), then
// drives the same service from 1, 2 and 4 concurrent submitter threads.
// Reports requests/s, p50/p99 serving latency overall and per submitter
// count, and the block-unitary / witness cache hit rates — the steady-state
// numbers the serving layer exists for.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "automata/automaton.h"
#include "automata/qrng.h"
#include "bench_util.h"
#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "perm/permutation.h"
#include "serve/automata_service.h"
#include "synth/catalog_server.h"
#include "synth/fmcf.h"
#include "synth/specs.h"

namespace {

using namespace qsyn;

/// Requests the soak must sustain (the serving acceptance floor).
constexpr std::uint64_t kSoakFloor = 100000;

/// The submitter axis: concurrent single-request submitters on one service,
/// each on its own tenant, each sending kAxisRequests requests.
constexpr std::array<std::size_t, 3> kSubmitterAxis = {1, 2, 4};
constexpr std::size_t kAxisRequests = 200000;

/// A random cascade over the library that stays reasonable gate by gate —
/// reasonable circuits keep the MV and Hilbert backends bit-identical, so
/// backend flips mid-traffic never change tenant streams.
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

const gates::GateLibrary& library_for(std::size_t wires) {
  static const gates::GateLibrary lib2 = gates::GateLibrary::standard(2);
  static const gates::GateLibrary lib3 = gates::GateLibrary::standard(3);
  static const gates::GateLibrary lib4 = gates::GateLibrary::standard(4);
  switch (wires) {
    case 2:
      return lib2;
    case 3:
      return lib3;
    default:
      return lib4;
  }
}

struct TenantInfo {
  std::uint64_t id = 0;
  bool is_qrng = false;
  bool churnable = false;
  std::uint32_t input_words = 1;  // valid inputs are [0, input_words)
  automata::MeasurementBackend backend =
      automata::MeasurementBackend::kMultiValued;
};

/// One point of the submitter axis: requests/s over the point's wall time
/// and per-request latency quantiles measured by the submitters.
struct AxisPoint {
  std::size_t submitters = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct SoakResult {
  serve::ServiceStats stats;
  std::vector<AxisPoint> axis;
  sim::UnitaryCache::Stats engine_cache;
  synth::CatalogServer::CacheStats witness_cache;
  double seconds = 0.0;
  std::uint64_t backend_flips = 0;
  std::uint64_t churns = 0;
  std::size_t peak_tenants = 0;
};

TenantInfo add_automaton_tenant(serve::AutomataService& service,
                                gates::Cascade circuit, bool churnable) {
  TenantInfo info;
  info.input_words =
      std::uint32_t(1) << (circuit.wires() - 1);  // 1 state wire
  info.id =
      service.add_automaton(automata::QuantumAutomaton(std::move(circuit), 1));
  info.churnable = churnable;
  return info;
}

SoakResult run_soak() {
  SoakResult result;

  // The churn supply chain: a served FMCF closure over the paper's 3-wire
  // library. Departing tenants are replaced with circuits synthesized
  // through this server, cycling a fixed target set so the witness cache
  // sees the skewed repeat-heavy mix serving is built for.
  synth::FmcfEnumerator closure(library_for(3));
  closure.run_to(4);
  const synth::CatalogServer catalog{std::move(closure)};
  const std::vector<perm::Permutation> churn_targets = {
      synth::peres_perm(), synth::g2_perm(), synth::g3_perm(),
      synth::g4_perm()};

  serve::AutomataService::Options options;
  options.seed = 20260808;
  serve::AutomataService service(options);

  // The resident fleet: automatons on random reasonable cascades at n = 2,
  // 3 and 4 wires, plus controlled-coin QRNGs at 2 and 3 wires.
  Rng build_rng(17);
  std::vector<TenantInfo> tenants;
  for (const std::size_t wires : {std::size_t(2), std::size_t(3),
                                  std::size_t(3), std::size_t(4)}) {
    tenants.push_back(add_automaton_tenant(
        service,
        random_reasonable_cascade(build_rng, library_for(wires),
                                  4 + build_rng.below(5)),
        /*churnable=*/false));
  }
  for (const std::size_t wires : {std::size_t(2), std::size_t(3)}) {
    TenantInfo info;
    info.is_qrng = true;
    const auto qrng = automata::ControlledQrng::synthesize(
        library_for(wires), automata::controlled_coin_spec(wires));
    QSYN_CHECK(qrng.has_value(), "coin spec must synthesize");
    info.input_words = std::uint32_t(1) << wires;
    info.id = service.add_qrng(*qrng);
    tenants.push_back(info);
  }
  // Two churn slots, initially filled from the catalog.
  std::size_t next_target = 0;
  const auto churn_circuit = [&]() -> gates::Cascade {
    const auto synthesized =
        catalog.synthesize(churn_targets[next_target % churn_targets.size()]);
    ++next_target;
    QSYN_CHECK(synthesized.has_value(), "churn target must be in the catalog");
    return synthesized->circuit;
  };
  for (int i = 0; i < 2; ++i) {
    tenants.push_back(
        add_automaton_tenant(service, churn_circuit(), /*churnable=*/true));
  }
  result.peak_tenants = tenants.size();

  // Phase 1: chunked mixed traffic from one driver. Random tenant per
  // request; ~2% of requests flip the tenant's measurement backend; every
  // few chunks one churnable tenant departs and a catalog-synthesized
  // replacement joins.
  Rng traffic(99);
  const std::uint64_t start = metrics::now_ns();
  constexpr std::size_t kChunk = 128;
  std::uint64_t submitted = 0;
  std::uint64_t chunk_index = 0;
  while (submitted < kSoakFloor) {
    std::vector<serve::Request> chunk;
    chunk.reserve(kChunk);
    for (std::size_t i = 0; i < kChunk; ++i) {
      TenantInfo& tenant = tenants[traffic.below(tenants.size())];
      serve::Request request;
      request.tenant = tenant.id;
      const std::uint64_t roll = traffic.below(100);
      if (roll < 2) {
        request.kind = serve::RequestKind::kSetBackend;
        tenant.backend =
            tenant.backend == automata::MeasurementBackend::kMultiValued
                ? automata::MeasurementBackend::kHilbert
                : automata::MeasurementBackend::kMultiValued;
        request.backend = tenant.backend;
        ++result.backend_flips;
      } else if (roll < 22) {
        request.kind = serve::RequestKind::kDistribution;
        request.input_bits = traffic.below(tenant.input_words);
      } else {
        request.kind = tenant.is_qrng ? serve::RequestKind::kSample
                                      : serve::RequestKind::kStep;
        request.input_bits = traffic.below(tenant.input_words);
      }
      chunk.push_back(request);
    }
    for (const serve::Response& response : service.submit_batch(chunk)) {
      QSYN_CHECK(response.status == serve::ResponseStatus::kOk,
                 "soak traffic must be accepted");
    }
    submitted += chunk.size();
    ++chunk_index;
    if (chunk_index % 64 == 0) {
      // Tenant churn: retire one churnable tenant, admit a fresh catalog
      // synthesis under a brand-new id (ids are never reused).
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        if (!tenants[t].churnable) continue;
        QSYN_CHECK(service.remove_tenant(tenants[t].id),
                   "churn tenant must exist");
        tenants[t] =
            add_automaton_tenant(service, churn_circuit(), /*churnable=*/true);
        ++result.churns;
        break;
      }
    }
  }

  // Phase 2: the submitter axis. Each of n threads hammers its own tenant
  // through single-request submits; requests to distinct tenants run in
  // parallel on their callers' threads.
  for (const std::size_t count : kSubmitterAxis) {
    std::vector<std::vector<std::uint64_t>> latencies(count);
    std::vector<std::thread> submitters;
    const std::uint64_t axis_start = metrics::now_ns();
    for (std::size_t t = 0; t < count; ++t) {
      const TenantInfo tenant = tenants[t % tenants.size()];
      submitters.emplace_back([&service, &latencies, tenant, t] {
        Rng rng(1000 + t);
        std::vector<std::uint64_t>& own = latencies[t];
        own.reserve(kAxisRequests);
        for (std::size_t i = 0; i < kAxisRequests; ++i) {
          serve::Request request;
          request.tenant = tenant.id;
          request.kind = tenant.is_qrng ? serve::RequestKind::kSample
                                        : serve::RequestKind::kStep;
          request.input_bits =
              static_cast<std::uint32_t>(rng.below(tenant.input_words));
          const std::uint64_t t0 = metrics::now_ns();
          const serve::Response response = service.submit(request);
          own.push_back(metrics::now_ns() - t0);
          QSYN_CHECK(response.status == serve::ResponseStatus::kOk,
                     "threaded soak traffic must be accepted");
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    const double seconds = metrics::seconds_since(axis_start);
    std::vector<std::uint64_t> all;
    for (const auto& own : latencies) {
      all.insert(all.end(), own.begin(), own.end());
    }
    std::sort(all.begin(), all.end());
    AxisPoint point;
    point.submitters = count;
    point.rps = static_cast<double>(all.size()) / seconds;
    point.p50_us = static_cast<double>(all[all.size() / 2]) / 1e3;
    point.p99_us = static_cast<double>(all[all.size() * 99 / 100]) / 1e3;
    result.axis.push_back(point);
  }

  result.seconds = metrics::seconds_since(start);
  result.stats = service.stats();
  result.engine_cache = service.engine_cache_stats();
  result.witness_cache = catalog.cache_stats();
  return result;
}

double hit_rate(std::size_t hits, std::size_t misses) {
  const std::size_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

void report(const SoakResult& result) {
  const serve::ServiceStats& stats = result.stats;
  bench::section("Serving soak: multi-tenant automata/QRNG front end");
  bench::note("fleet: " + std::to_string(result.peak_tenants) +
              " tenants over n=2..4 cascades, " +
              std::to_string(result.churns) + " churns, " +
              std::to_string(result.backend_flips) + " backend flips");
  std::printf("  %-34s %llu in %.2f s (%s)\n", "requests served",
              static_cast<unsigned long long>(stats.requests), result.seconds,
              bench::status_word(stats.requests >= kSoakFloor &&
                                 stats.rejected == 0));
  const double rps =
      result.seconds > 0.0 ? stats.requests / result.seconds : 0.0;
  bench::value_row("throughput",
                   std::to_string(static_cast<long long>(rps)) + " req/s");
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%.2f us / %.2f us / %.2f us",
                stats.all.p50_ns / 1e3, stats.all.p99_ns / 1e3,
                stats.all.max_ns / 1e3);
  bench::value_row("latency p50/p99/max", buffer);
  bench::value_row("Hilbert evaluations", std::to_string(stats.engine_jobs));
  for (const AxisPoint& point : result.axis) {
    std::snprintf(buffer, sizeof(buffer), "%.0f req/s, p50 %.2f, p99 %.2f us",
                  point.rps, point.p50_us, point.p99_us);
    bench::value_row(std::to_string(point.submitters) + " submitter(s)",
                     buffer);
  }
  std::snprintf(buffer, sizeof(buffer), "%.3f (%zu hits, %zu misses, %zu dup)",
                hit_rate(result.engine_cache.hits, result.engine_cache.misses),
                result.engine_cache.hits, result.engine_cache.misses,
                result.engine_cache.duplicate_folds);
  bench::value_row("unitary-cache hit rate", buffer);
  std::snprintf(buffer, sizeof(buffer), "%.3f (%zu hits, %zu misses)",
                hit_rate(result.witness_cache.hits,
                         result.witness_cache.misses),
                result.witness_cache.hits, result.witness_cache.misses);
  bench::value_row("witness-cache hit rate", buffer);
}

/// One full soak per iteration; counters carry the serving numbers into the
/// aggregated baseline JSON (BENCH_pr*.json via scripts/run_benches.sh).
void bm_serve_soak(benchmark::State& bench_state) {
  SoakResult result;
  for (auto _ : bench_state) {
    result = run_soak();
  }
  report(result);
  const serve::ServiceStats& stats = result.stats;
  bench_state.SetItemsProcessed(static_cast<std::int64_t>(stats.requests));
  bench_state.counters["requests"] = static_cast<double>(stats.requests);
  bench_state.counters["rps"] =
      result.seconds > 0.0 ? stats.requests / result.seconds : 0.0;
  bench_state.counters["p50_us"] = static_cast<double>(stats.all.p50_ns) / 1e3;
  bench_state.counters["p99_us"] = static_cast<double>(stats.all.p99_ns) / 1e3;
  bench_state.counters["unitary_cache_hit_rate"] =
      hit_rate(result.engine_cache.hits, result.engine_cache.misses);
  bench_state.counters["witness_cache_hit_rate"] =
      hit_rate(result.witness_cache.hits, result.witness_cache.misses);
  for (const AxisPoint& point : result.axis) {
    const std::string suffix = "_" + std::to_string(point.submitters) + "sub";
    bench_state.counters["rps" + suffix] = point.rps;
    bench_state.counters["p50_us" + suffix] = point.p50_us;
    bench_state.counters["p99_us" + suffix] = point.p99_us;
  }
}
BENCHMARK(bm_serve_soak)->Iterations(1)->Unit(benchmark::kSecond);

}  // namespace

int main(int argc, char** argv) {
  return qsyn::bench::run_benchmarks(argc, argv);
}
