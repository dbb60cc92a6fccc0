// examples/explore_costs.cpp
//
// A small synthesis CLI over the public API: give it a 3-bit reversible
// circuit as a permutation in cycle notation (the paper's labeling:
// 1 = |000>, ..., 8 = |111>) and it prints the minimal quantum-cost
// realization, every minimal implementation (closure engine only), and the
// NMR-style weighted optimum.
//
// Synthesis goes through the `synth::SynthesisBackend` seam, so the engine
// is a command-line choice: the exhaustive FMCF closure (default) or the
// topology-guided DFS, which answers the same costs without materializing
// the closure.
//
// Usage:
//   explore_costs                            # demo on famous gates
//   explore_costs "(5,7,6,8)"                # synthesize one permutation
//   explore_costs --engine=search "(5,7,6,8)"  # same answer via the DFS
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/error.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/permutation.h"
#include "sim/cross_check.h"
#include "synth/mce.h"
#include "synth/search/topology_search.h"
#include "synth/specs.h"
#include "synth/weighted.h"

namespace {

using namespace qsyn;

void synthesize_one(synth::SynthesisBackend& backend,
                    const synth::WeightedSynthesizer& nmr,
                    const std::string& name, const perm::Permutation& target) {
  std::printf("--- %s = %s ---\n", name.c_str(),
              target.to_cycle_string().c_str());
  const auto result = backend.synthesize(target);
  if (!result.has_value()) {
    std::printf("  no realization with quantum cost <= %u\n",
                backend.max_cost());
    return;
  }
  // Enumerating *every* minimal implementation is a closure-only capability
  // that the seam does not carry: it is a member of the concrete engine.
  if (auto* closure = dynamic_cast<synth::McExpressor*>(&backend)) {
    const auto impls = closure->implementations(target);
    std::printf("  minimal quantum cost: %u (%zu implementation%s)\n",
                impls.front().cost, impls.size(), impls.size() == 1 ? "" : "s");
    for (const auto& impl : impls) {
      std::printf("    %s%s\n", impl.circuit.to_string().c_str(),
                  sim::realizes_permutation(impl.circuit, target)
                      ? ""
                      : "  [unitary MISMATCH]");
    }
  } else {
    std::printf("  minimal quantum cost: %u (one witness)\n", result->cost);
    std::printf("    %s%s\n", result->circuit.to_string().c_str(),
                sim::realizes_permutation(result->circuit, target)
                    ? ""
                    : "  [unitary MISMATCH]");
  }
  std::printf("%s\n", result->circuit.to_diagram().c_str());
  if (const auto weighted = nmr.synthesize(target)) {
    std::printf("  NMR-style optimum (V=3, CNOT=2, NOT=1): %s (cost %u)\n",
                weighted->circuit.to_string().c_str(), weighted->cost);
  }
  std::printf("\n");
}

std::unique_ptr<synth::SynthesisBackend> make_backend(
    const gates::GateLibrary& library, const std::string& engine) {
  if (engine == "search") {
    synth::SearchConfig config;
    config.max_cost = 7;
    return std::make_unique<synth::TopologySearchBackend>(library, config);
  }
  if (engine == "closure") {
    return std::make_unique<synth::McExpressor>(library, 7);
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qsyn;
  std::string engine = "closure";
  int arg = 1;
  if (arg < argc && std::strncmp(argv[arg], "--engine=", 9) == 0) {
    engine = argv[arg] + 9;
    ++arg;
  }

  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);
  const auto backend = make_backend(library, engine);
  if (!backend) {
    std::printf("error: unknown engine '%s' (closure | search)\n",
                engine.c_str());
    return 1;
  }
  const synth::WeightedSynthesizer nmr(library, gates::CostModel::nmr_like());
  std::printf("engine: %s (cb = %u)\n", engine.c_str(), backend->max_cost());
  if (auto* closure = dynamic_cast<synth::McExpressor*>(backend.get())) {
    std::printf("FMCF sweep threads: %zu (set QSYN_THREADS to override)\n",
                closure->enumerator().threads());
  }
  std::printf("\n");

  if (arg < argc) {
    try {
      const auto target = perm::Permutation::from_cycles(argv[arg], 8);
      synthesize_one(*backend, nmr, argv[arg], target);
    } catch (const qsyn::Error& e) {
      std::printf("error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  synthesize_one(*backend, nmr, "Peres", synth::peres_perm());
  synthesize_one(*backend, nmr, "Toffoli", synth::toffoli_perm());
  synthesize_one(*backend, nmr, "Fredkin", synth::fredkin_perm());
  synthesize_one(*backend, nmr, "swap(B,C)", synth::swap_bc_perm());
  return 0;
}
