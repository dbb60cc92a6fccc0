// qsyn/automata/prob_synth.h
//
// Minimal-cost synthesis of probabilistic combinational circuits:
// the Section-3 machinery with the binary-output restriction dropped
// ("our approach generates quantum circuits with probabilistic combinational
// functionality ... without any modifications", Section 4).
//
// The synthesizer runs the Section-3 search as it is: the iterative-deepening
// walk of synth::TopologySearchBackend over reasonable cascades (2..5 wires),
// with a leaf test on the binary-label images in place of the target lookup.
// The first depth at which a spec is met is its exact minimal quantum cost,
// and the cascade returned is the lexicographically least (by gate index) of
// that depth's matches. Wider libraries throw qsyn::LogicError.
#pragma once

#include <optional>

#include "automata/prob_spec.h"
#include "gates/cascade.h"
#include "gates/library.h"

namespace qsyn::automata {

/// Iterative-deepening synthesizer over a gate library.
class ProbSynthesizer {
 public:
  explicit ProbSynthesizer(const gates::GateLibrary& library,
                           unsigned max_cost = 7);

  /// Minimal cascade realizing an exact quaternary spec, or nullopt when no
  /// reasonable cascade of cost <= max_cost matches.
  [[nodiscard]] std::optional<gates::Cascade> synthesize(
      const ExactProbSpec& spec) const;

  /// Minimal cascade whose measurement behavior matches a behavioral spec.
  [[nodiscard]] std::optional<gates::Cascade> synthesize(
      const BehavioralProbSpec& spec) const;

  [[nodiscard]] unsigned max_cost() const { return max_cost_; }

 private:
  const gates::GateLibrary* library_;
  unsigned max_cost_;
};

}  // namespace qsyn::automata
