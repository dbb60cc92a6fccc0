// examples/quickstart.cpp
//
// Quickstart for the qsyn library: synthesize the Toffoli gate from truly
// quantum gates (controlled-V, controlled-V+, CNOT), print the circuit, and
// verify it in full Hilbert-space simulation.
//
// This is the headline use case of the paper: Toffoli's minimal realization
// over the 2-qubit quantum library has quantum cost 5 (Figure 9). Synthesis
// goes through the `synth::SynthesisBackend` seam, so the same call works
// with any engine — the exhaustive FMCF closure below, the persistent
// catalog (`CatalogServer::as_backend()`), or the topology-guided DFS used
// here as a cross-check.
#include <cstdio>

#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/permutation.h"
#include "sim/cross_check.h"
#include "synth/mce.h"
#include "synth/search/topology_search.h"
#include "synth/specs.h"

int main() {
  using namespace qsyn;

  // 1. Build the 3-qubit synthesis domain (the paper's 38 labeled patterns)
  //    and the 18-gate quantum library L.
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  std::printf("domain: %zu patterns, library: %zu gates\n", domain.size(),
              library.size());

  // 2. Describe the target reversible circuit as a permutation of the 8
  //    binary patterns. Toffoli swaps |110> and |111>: (7,8).
  const perm::Permutation toffoli = synth::toffoli_perm();
  std::printf("target: Toffoli = %s\n", toffoli.to_cycle_string().c_str());

  // 3. Synthesize a minimum-quantum-cost realization. The closure engine is
  //    the paper's MCE algorithm; every engine answers through the same
  //    SynthesisBackend interface, so swapping engines changes one line.
  synth::McExpressor closure(library, /*max_cost=*/7);
  synth::SynthesisBackend& backend = closure;
  std::printf("engine: closure (cb = %u)\n", backend.max_cost());
  const auto result = backend.synthesize(toffoli);
  if (!result.has_value()) {
    std::printf("no realization within the cost bound\n");
    return 1;
  }
  std::printf("minimal quantum cost: %u\n", result->cost);
  std::printf("cascade: %s\n", result->circuit.to_string().c_str());
  std::printf("%s\n", result->circuit.to_diagram().c_str());

  // 4. Verify in full Hilbert space: the cascade's 8x8 unitary must be
  //    exactly the Toffoli permutation matrix.
  const bool exact = sim::realizes_permutation(result->circuit, toffoli);
  std::printf("unitary check: %s\n", exact ? "exact" : "MISMATCH");

  // 5. Cross-check with the second engine: the topology-guided DFS searches
  //    per query instead of sweeping the whole closure, and being exact it
  //    must land on the same minimal cost.
  synth::TopologySearchBackend search(library);
  const auto via_search = search.synthesize(toffoli);
  const bool agree = via_search.has_value() && via_search->cost == result->cost;
  std::printf("topology-search cross-check: %s\n",
              agree ? "same minimal cost" : "MISMATCH");
  return exact && agree ? 0 : 1;
}
