// qsyn/sim/unitary.h
//
// Full-unitary construction for gates and cascades: the 2^n x 2^n matrices
// the paper's abstraction replaces. Used to verify that synthesized cascades
// implement exactly the requested reversible function (as a 0/1 permutation
// matrix, with no phase defects — the paper's constructions are exact).
#pragma once

#include "gates/cascade.h"
#include "gates/gate.h"
#include "la/matrix.h"
#include "perm/permutation.h"

namespace qsyn::sim {

/// The 2^wires x 2^wires unitary of the gate run [gates, gates + count):
/// column j is StateVector::basis(wires, j) run through the gates in order
/// (exact dyadic arithmetic). gate_unitary, cascade_unitary and the fused
/// simulator's block folds all build through this one loop.
[[nodiscard]] la::Matrix gates_unitary(std::size_t wires,
                                       const gates::Gate* gates,
                                       std::size_t count);

/// The 2^wires x 2^wires unitary of one elementary gate.
[[nodiscard]] la::Matrix gate_unitary(const gates::Gate& gate,
                                      std::size_t wires);

/// The unitary of a cascade (gate matrices multiplied in cascade order:
/// U = U_k ... U_2 U_1 so that U acts on column vectors).
[[nodiscard]] la::Matrix cascade_unitary(const gates::Cascade& cascade);

/// The permutation matrix of a reversible function given as a permutation of
/// {1..2^n} in binary-value order (label 1 = |0..0>).
[[nodiscard]] la::Matrix permutation_unitary(const perm::Permutation& perm,
                                             std::size_t wires);

/// True iff the cascade's unitary is exactly a 0/1 permutation matrix, i.e.
/// the circuit is a deterministic classical reversible circuit in Hilbert
/// space (not merely up to phases).
[[nodiscard]] bool is_permutative(const gates::Cascade& cascade,
                                  double tol = la::kDefaultTolerance);

/// Extracts the classical permutation (on {1..2^n}) realized by a
/// permutative cascade. Throws qsyn::LogicError if not permutative.
[[nodiscard]] perm::Permutation extract_classical_permutation(
    const gates::Cascade& cascade, double tol = la::kDefaultTolerance);

}  // namespace qsyn::sim
