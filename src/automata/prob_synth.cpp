#include "automata/prob_synth.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "synth/search/topology_search.h"

namespace qsyn::automata {

ProbSynthesizer::ProbSynthesizer(const gates::GateLibrary& library,
                                 unsigned max_cost)
    : library_(&library), max_cost_(max_cost) {
  QSYN_CHECK(max_cost <= 9, "iterative deepening bounded to cost 9");
}

namespace {

/// The minimal (then lexicographically least) reasonable cascade of cost <=
/// max_cost whose binary-label images `accept` takes.
std::optional<gates::Cascade> first_cascade(
    const gates::GateLibrary& library, unsigned max_cost,
    const synth::TopologySearchBackend::LeafTest& accept) {
  synth::SearchConfig config;
  config.max_cost = max_cost;
  synth::TopologySearchBackend search(library, config);
  return search.first_cascade(accept);
}

}  // namespace

std::optional<gates::Cascade> ProbSynthesizer::synthesize(
    const ExactProbSpec& spec) const {
  const mvl::PatternDomain& domain = library_->domain();
  QSYN_CHECK(spec.wires() == domain.wires(), "spec wire count mismatch");
  if (!spec.is_realizable_shape(domain)) return std::nullopt;
  std::vector<std::uint16_t> wanted(domain.binary_count());
  for (std::uint32_t i = 0; i < domain.binary_count(); ++i) {
    wanted[i] =
        static_cast<std::uint16_t>(domain.label_of(spec.output_for(i)) - 1);
  }
  return first_cascade(*library_, max_cost_,
                       [&wanted](const std::uint16_t* images) {
                         return std::equal(wanted.begin(), wanted.end(),
                                           images);
                       });
}

std::optional<gates::Cascade> ProbSynthesizer::synthesize(
    const BehavioralProbSpec& spec) const {
  const mvl::PatternDomain& domain = library_->domain();
  QSYN_CHECK(spec.wires() == domain.wires(), "spec wire count mismatch");
  return first_cascade(
      *library_, max_cost_, [&spec, &domain](const std::uint16_t* images) {
        for (std::uint32_t i = 0; i < domain.binary_count(); ++i) {
          if (!spec.accepts(i, domain.pattern(images[i] + 1u))) return false;
        }
        return true;
      });
}

}  // namespace qsyn::automata
