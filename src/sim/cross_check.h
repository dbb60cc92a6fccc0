// qsyn/sim/cross_check.h
//
// Validation bridge between the paper's multi-valued abstraction (mvl/gates)
// and full Hilbert-space semantics (sim). The soundness claim behind the
// whole reduction is:
//
//   For every *reasonable* cascade and every binary input pattern, the
//   simulator's output state is exactly the product state of the quaternary
//   values predicted by the multi-valued model (no phase defects).
//
// These helpers check that claim instance by instance; the test suite sweeps
// them over the library gates, the paper's circuits, and random cascades.
//
// mv_model_matches_hilbert is served by a process-wide fused engine
// (sim/batch.h, default SimOptions on one thread); sweeps that want their
// own engine, and its block-unitary cache, call
// BatchSimulator::check_mv_model directly. The gate-at-a-time check is kept
// once, as mv_model_matches_hilbert_reference: the oracle the fused verdicts
// are diffed against.
#pragma once

#include "gates/cascade.h"
#include "mvl/domain.h"
#include "perm/permutation.h"

namespace qsyn::sim {

/// True iff, for every binary input, simulating `cascade` yields exactly the
/// product state predicted by the multi-valued model. The cascade should be
/// reasonable over `domain` (the guarantee does not hold otherwise). Served
/// by the process-wide fused engine (single-threaded, shared block cache).
[[nodiscard]] bool mv_model_matches_hilbert(const gates::Cascade& cascade,
                                            const mvl::PatternDomain& domain,
                                            double tol = 1e-9);

/// The same check, simulated gate at a time (StateVector::apply_cascade)
/// with no folding and no cache: the oracle for the fused engine.
[[nodiscard]] bool mv_model_matches_hilbert_reference(
    const gates::Cascade& cascade, const mvl::PatternDomain& domain,
    double tol = 1e-9);

/// True iff the cascade's full unitary is exactly the permutation matrix of
/// `target` (a permutation of {1..2^n} in binary-value order).
[[nodiscard]] bool realizes_permutation(const gates::Cascade& cascade,
                                        const perm::Permutation& target,
                                        double tol = 1e-9);

}  // namespace qsyn::sim
