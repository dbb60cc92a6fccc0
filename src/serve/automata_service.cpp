#include "serve/automata_service.h"

#include <cstddef>
#include <utility>

#include "automata/measurement.h"
#include "common/error.h"
#include "mvl/pattern.h"
#include "sim/state_vector.h"

namespace qsyn::serve {

AutomataService::AutomataService() : AutomataService(Options{}) {}

AutomataService::AutomataService(Options options)
    : options_(options), root_rng_(options.seed) {
  QSYN_CHECK(options_.sim.fuse_block >= 1, "fuse_block must be at least 1");
}

AutomataService::~AutomataService() = default;

std::uint64_t AutomataService::add_tenant(
    std::optional<automata::QuantumAutomaton> machine,
    std::optional<automata::ControlledQrng> qrng) {
  auto tenant = std::make_shared<Tenant>();
  tenant->machine = std::move(machine);
  tenant->qrng = std::move(qrng);
  std::lock_guard lock(tenants_mutex_);
  const std::uint64_t id = next_tenant_id_++;
  tenant->rng = root_rng_.split();
  tenants_.emplace(id, std::move(tenant));
  return id;
}

std::uint64_t AutomataService::add_automaton(
    automata::QuantumAutomaton machine) {
  // Tenants are always served through the shared cache, so the machine
  // drops any fold of its own (its backend setting is replaced by the
  // per-tenant one here).
  machine.set_measurement_backend(automata::MeasurementBackend::kMultiValued);
  return add_tenant(std::move(machine), std::nullopt);
}

std::uint64_t AutomataService::add_qrng(automata::ControlledQrng qrng) {
  return add_tenant(std::nullopt, std::move(qrng));
}

bool AutomataService::remove_tenant(std::uint64_t id) {
  std::shared_ptr<Tenant> tenant;
  {
    std::lock_guard lock(tenants_mutex_);
    const auto it = tenants_.find(id);
    if (it == tenants_.end()) return false;
    tenant = std::move(it->second);
    tenants_.erase(it);
  }
  // Waits out the request holding the tenant; requests that found it
  // before the erase but lock it after answer kUnknownTenant.
  std::lock_guard lock(tenant->mutex);
  tenant->removed = true;
  return true;
}

std::size_t AutomataService::tenant_count() const {
  std::shared_lock lock(tenants_mutex_);
  return tenants_.size();
}

sim::UnitaryCache::Stats AutomataService::engine_cache_stats() const {
  return cache_.stats();
}

Response AutomataService::submit(const Request& request) {
  calls_.add();
  return serve(request, metrics::now_ns());
}

std::vector<Response> AutomataService::submit_batch(
    const std::vector<Request>& requests) {
  calls_.add();
  const std::uint64_t start_ns = metrics::now_ns();
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (const Request& request : requests) {
    responses.push_back(serve(request, start_ns));
  }
  return responses;
}

std::vector<double> AutomataService::distribution(Tenant& tenant,
                                                  std::uint32_t word) {
  const gates::Cascade& circuit = tenant.machine.has_value()
                                      ? tenant.machine->circuit()
                                      : tenant.qrng->circuit();
  if (tenant.backend == automata::MeasurementBackend::kHilbert) {
    if (!tenant.fused.has_value()) {
      tenant.fused.emplace(circuit, options_.sim.fuse_block, cache_);
    }
    std::vector<double> probs =
        tenant.fused->apply_to_basis(word).distribution();
    hilbert_evaluations_.add();
    return probs;
  }
  if (tenant.qrng.has_value()) return tenant.qrng->distribution(word);
  const mvl::Pattern output =
      circuit.apply(mvl::Pattern::from_binary(circuit.wires(), word));
  return automata::outcome_distribution(output);
}

void AutomataService::record(RequestKind kind, ResponseStatus status,
                             std::uint64_t start_ns) {
  const std::uint64_t elapsed = metrics::now_ns() - start_ns;
  all_latency_.record_ns(elapsed);
  switch (kind) {
    case RequestKind::kStep:
      step_latency_.record_ns(elapsed);
      break;
    case RequestKind::kSample:
      sample_latency_.record_ns(elapsed);
      break;
    case RequestKind::kDistribution:
      distribution_latency_.record_ns(elapsed);
      break;
    case RequestKind::kSetBackend:
      break;
  }
  if (status == ResponseStatus::kOk) {
    requests_.add();
  } else {
    rejected_.add();
  }
}

Response AutomataService::serve(const Request& request,
                                std::uint64_t start_ns) {
  std::shared_ptr<Tenant> tenant;
  {
    std::shared_lock lock(tenants_mutex_);
    const auto it = tenants_.find(request.tenant);
    if (it != tenants_.end()) tenant = it->second;
  }
  Response response;
  response.status = ResponseStatus::kUnknownTenant;
  if (tenant != nullptr) {
    std::lock_guard lock(tenant->mutex);
    if (!tenant->removed) response = answer(*tenant, request);
  }
  record(request.kind, response.status, start_ns);
  return response;
}

Response AutomataService::answer(Tenant& tenant, const Request& request) {
  Response response;  // kBadRequest until answered
  if (request.kind == RequestKind::kSetBackend) {
    tenant.backend = request.backend;
    response.status = ResponseStatus::kOk;
    return response;
  }
  const bool is_automaton = tenant.machine.has_value();
  const std::size_t input_wires = is_automaton
                                      ? tenant.machine->input_wires()
                                      : tenant.qrng->circuit().wires();
  const bool kind_ok = request.kind == RequestKind::kDistribution ||
                       (request.kind == RequestKind::kStep) == is_automaton;
  if (!kind_ok || request.input_bits >= (std::uint64_t(1) << input_wires)) {
    return response;
  }
  // An automaton's engine input is its state bits above the input bits.
  std::uint32_t word = request.input_bits;
  if (is_automaton) word |= tenant.machine->state() << input_wires;
  std::vector<double> dist = distribution(tenant, word);
  response.status = ResponseStatus::kOk;
  if (request.kind == RequestKind::kDistribution) {
    response.distribution = std::move(dist);
    return response;
  }
  // One uniform draw per step/sample, from the tenant's own stream, in the
  // tenant's request order — the backend only chose how the (identical,
  // dyadic) distribution was computed.
  response.word = automata::sample_index(dist, tenant.rng);
  if (request.kind == RequestKind::kStep) {
    tenant.machine->reset(response.word >> input_wires);
  }
  return response;
}

ServiceStats AutomataService::stats() const {
  ServiceStats stats;
  stats.requests = requests_.value();
  stats.rejected = rejected_.value();
  stats.combine_rounds = calls_.value();
  stats.engine_batches = hilbert_evaluations_.value();
  stats.engine_jobs = stats.engine_batches;
  stats.all = all_latency_.snapshot();
  stats.step = step_latency_.snapshot();
  stats.sample = sample_latency_.snapshot();
  stats.distribution = distribution_latency_.snapshot();
  return stats;
}

}  // namespace qsyn::serve
