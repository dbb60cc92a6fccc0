#include "sim/cross_check.h"

#include "sim/batch.h"
#include "sim/state_vector.h"
#include "sim/unitary.h"

namespace qsyn::sim {

namespace {

/// Process-wide engine for mv_model_matches_hilbert, pinned to one thread:
/// a 2^n-input check has nothing worth fanning out, and a single-threaded
/// engine keeps concurrent callers safe (the block cache itself is
/// mutex-guarded).
BatchSimulator& default_engine() {
  static BatchSimulator engine = [] {
    SimOptions options;
    options.threads = 1;
    return BatchSimulator(options);
  }();
  return engine;
}

}  // namespace

bool mv_model_matches_hilbert(const gates::Cascade& cascade,
                              const mvl::PatternDomain& domain, double tol) {
  return default_engine().check_mv_model_one(cascade, domain, tol);
}

bool mv_model_matches_hilbert_reference(const gates::Cascade& cascade,
                                        const mvl::PatternDomain& domain,
                                        double tol) {
  if (domain.wires() != cascade.wires()) return false;
  const std::size_t wires = cascade.wires();
  for (std::uint32_t bits = 0; bits < (1u << wires); ++bits) {
    StateVector state = StateVector::basis(wires, bits);
    state.apply_cascade(cascade);
    const mvl::Pattern predicted =
        cascade.apply(mvl::Pattern::from_binary(wires, bits));
    if (state.distance_to(StateVector::from_pattern(predicted)) > tol) {
      return false;
    }
  }
  return true;
}

bool realizes_permutation(const gates::Cascade& cascade,
                          const perm::Permutation& target, double tol) {
  const la::Matrix u = cascade_unitary(cascade);
  const la::Matrix expected = permutation_unitary(
      target.extended_to(std::size_t(1) << cascade.wires()), cascade.wires());
  return u.approx_equal(expected, tol);
}

}  // namespace qsyn::sim
