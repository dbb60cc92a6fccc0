// qsyn/serve/automata_service.h
//
// Multi-tenant serving front end for the automata layer (Figure 3 machines):
// N tenants — each a QuantumAutomaton or a ControlledQrng with its own
// reproducible Rng stream — served over ONE shared block-unitary cache, and
// every request reports through the common/metrics latency recorders.
//
// Serving model. A request is served on its caller's thread: submit() finds
// the tenant under a reader lock on the registry and serves it under that
// tenant's own mutex, so requests to different tenants run in parallel and
// requests to one tenant run one at a time. submit_batch() does the same for
// each of its requests in order. A Hilbert tenant folds its circuit through
// the shared cache on its first Hilbert request (tenants on equal circuits
// share the folded blocks) and keeps that fold, so each later Hilbert request
// is one column read and a few block products, with no cache lookup. Its
// |amplitude|^2 is StateVector::distribution, the same read a Hilbert
// QuantumAutomaton makes of its own fold.
//
// Determinism. Tenant streams split() off one root seed in add-order, and a
// step samples its outcome by inverse CDF from the tenant's *exact* joint
// output distribution — one uniform draw per step/sample regardless of
// backend. All amplitudes reachable from the paper's gate set are dyadic, so
// the kMultiValued and kHilbert distributions of a reasonable cascade are
// bit-identical, and therefore: same seed + same per-tenant request trace
// => identical per-tenant outcome streams, regardless of submitter thread
// count, batch boundaries, or measurement backend (tested in
// tests/test_serve.cpp). A request that throws (a failed fold) draws
// nothing and leaves its tenant as it was.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "automata/automaton.h"
#include "automata/qrng.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "sim/fused.h"

namespace qsyn::serve {

/// What a request asks of its tenant.
enum class RequestKind : std::uint8_t {
  /// One automaton cycle: measure, latch the state bits, return the full
  /// measured word. Automaton tenants only.
  kStep,
  /// One measured output word for the given input, no state. QRNG tenants
  /// only.
  kSample,
  /// The exact outcome distribution for the given input (automaton: over
  /// full output words from the tenant's current state; QRNG: over output
  /// words). Consumes no randomness.
  kDistribution,
  /// Switches the tenant's measurement backend mid-traffic (kMultiValued
  /// <-> kHilbert; either tenant type). Takes effect for every later
  /// request of that tenant, including later requests in the same batch.
  kSetBackend,
};

struct Request {
  RequestKind kind = RequestKind::kStep;
  std::uint64_t tenant = 0;
  std::uint32_t input_bits = 0;
  /// kSetBackend payload; ignored otherwise.
  automata::MeasurementBackend backend =
      automata::MeasurementBackend::kMultiValued;
};

enum class ResponseStatus : std::uint8_t {
  kOk,
  /// No tenant with that id (never added, or already removed).
  kUnknownTenant,
  /// Input bits out of range, or a kind the tenant cannot serve (kStep on a
  /// QRNG, kSample on an automaton).
  kBadRequest,
};

struct Response {
  ResponseStatus status = ResponseStatus::kBadRequest;
  /// kStep / kSample outcome word.
  std::uint32_t word = 0;
  /// kDistribution payload (empty otherwise).
  std::vector<double> distribution;
};

/// Service-wide counters plus per-kind latency snapshots (submit-to-response,
/// nanoseconds).
struct ServiceStats {
  std::uint64_t requests = 0;        // completed OK
  std::uint64_t rejected = 0;        // kUnknownTenant / kBadRequest
  std::uint64_t combine_rounds = 0;  // submit() / submit_batch() calls
  std::uint64_t engine_batches = 0;  // Hilbert-backend evaluations
  std::uint64_t engine_jobs = 0;     // Hilbert-backend evaluations
  metrics::LatencySnapshot all;
  metrics::LatencySnapshot step;
  metrics::LatencySnapshot sample;
  metrics::LatencySnapshot distribution;
};

/// The serving front end. Thread-safe throughout: submit()/submit_batch()
/// may be called from any thread concurrently with each other and with
/// tenant add/remove.
class AutomataService {
 public:
  struct Options {
    /// Only fuse_block is read: gates folded per block of a Hilbert tenant's
    /// circuit, at least 1 (the constructor rejects 0). Requests run on
    /// their callers' threads, so `threads` has no effect here.
    sim::SimOptions sim{};
    /// Root seed: tenant i's Rng is the i-th split() of this seed, in
    /// add-order, so one number reproduces every tenant stream.
    std::uint64_t seed = 0x5eedc0de5eedc0deULL;
  };

  AutomataService();  // = AutomataService(Options{})
  explicit AutomataService(Options options);
  ~AutomataService();

  AutomataService(const AutomataService&) = delete;
  AutomataService& operator=(const AutomataService&) = delete;

  /// Registers a tenant; returns its id (ids are never reused). The machine
  /// is served through the shared cache — its own measurement backend
  /// setting (and any fold it holds) is dropped in favor of the per-tenant
  /// backend here.
  std::uint64_t add_automaton(automata::QuantumAutomaton machine);
  std::uint64_t add_qrng(automata::ControlledQrng qrng);

  /// Removes a tenant (false when unknown). Returns once the tenant's
  /// in-flight request, if any, has finished; later requests for the id
  /// answer kUnknownTenant.
  bool remove_tenant(std::uint64_t id);

  [[nodiscard]] std::size_t tenant_count() const;

  /// Serves one request on the calling thread. An exception thrown while it
  /// is served (a failed fold) propagates to the caller.
  [[nodiscard]] Response submit(const Request& request);

  /// Serves a batch on the calling thread, in request order (so request
  /// order is per-tenant execution order).
  [[nodiscard]] std::vector<Response> submit_batch(
      const std::vector<Request>& requests);

  /// The shared block-unitary cache Hilbert tenants fold through.
  [[nodiscard]] sim::UnitaryCache& engine_cache() { return cache_; }

  /// One consistent snapshot of the shared block-unitary cache.
  [[nodiscard]] sim::UnitaryCache::Stats engine_cache_stats() const;

  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Tenant {
    // Serializes this tenant's requests, and guards every field below.
    std::mutex mutex;
    // Set by remove_tenant(); a request that found the tenant before its
    // removal answers kUnknownTenant.
    bool removed = false;
    // Exactly one of machine / qrng is set.
    std::optional<automata::QuantumAutomaton> machine;
    std::optional<automata::ControlledQrng> qrng;
    automata::MeasurementBackend backend =
        automata::MeasurementBackend::kMultiValued;
    Rng rng{0};
    // The circuit folded through cache_, on the first Hilbert request.
    std::optional<sim::FusedCascade> fused;
  };

  std::uint64_t add_tenant(std::optional<automata::QuantumAutomaton> machine,
                           std::optional<automata::ControlledQrng> qrng);
  /// Serves one request; start_ns is its submit time.
  [[nodiscard]] Response serve(const Request& request, std::uint64_t start_ns);
  /// Validates and answers a request to a live tenant, under tenant.mutex.
  [[nodiscard]] Response answer(Tenant& tenant, const Request& request);
  /// The tenant's exact output distribution for one engine input word,
  /// through its measurement backend, under tenant.mutex.
  [[nodiscard]] std::vector<double> distribution(Tenant& tenant,
                                                 std::uint32_t word);
  void record(RequestKind kind, ResponseStatus status,
              std::uint64_t start_ns);

  Options options_;
  sim::UnitaryCache cache_;

  // Tenant registry + root rng. Requests hold it shared only to find their
  // tenant; add/remove hold it exclusively.
  mutable std::shared_mutex tenants_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Tenant>> tenants_;
  Rng root_rng_;
  std::uint64_t next_tenant_id_ = 1;

  // Observability (lock-free recorders).
  metrics::LatencyRecorder all_latency_;
  metrics::LatencyRecorder step_latency_;
  metrics::LatencyRecorder sample_latency_;
  metrics::LatencyRecorder distribution_latency_;
  metrics::Counter requests_;
  metrics::Counter rejected_;
  metrics::Counter calls_;
  metrics::Counter hilbert_evaluations_;
};

}  // namespace qsyn::serve
