#include "sim/unitary.h"

#include "common/error.h"
#include "sim/state_vector.h"

namespace qsyn::sim {

la::Matrix gates_unitary(std::size_t wires, const gates::Gate* gates,
                         std::size_t count) {
  const std::size_t dim = std::size_t(1) << wires;
  la::Matrix u(dim, dim);
  // Column j of U is U|j>: run the simulator on each basis state.
  for (std::uint32_t j = 0; j < dim; ++j) {
    StateVector s = StateVector::basis(wires, j);
    for (std::size_t g = 0; g < count; ++g) s.apply_gate(gates[g]);
    for (std::size_t i = 0; i < dim; ++i) u(i, j) = s.amplitudes()[i];
  }
  return u;
}

la::Matrix gate_unitary(const gates::Gate& gate, std::size_t wires) {
  return gates_unitary(wires, &gate, 1);
}

la::Matrix cascade_unitary(const gates::Cascade& cascade) {
  return gates_unitary(cascade.wires(), cascade.sequence().data(),
                       cascade.size());
}

la::Matrix permutation_unitary(const perm::Permutation& perm,
                               std::size_t wires) {
  const std::size_t dim = std::size_t(1) << wires;
  QSYN_CHECK(perm.degree() <= dim, "permutation degree exceeds 2^wires");
  std::vector<std::size_t> images(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    images[j] = perm.apply(static_cast<std::uint32_t>(j + 1)) - 1;
  }
  return la::Matrix::permutation(images);
}

bool is_permutative(const gates::Cascade& cascade, double tol) {
  return cascade_unitary(cascade).is_permutation(tol);
}

perm::Permutation extract_classical_permutation(const gates::Cascade& cascade,
                                                double tol) {
  const std::vector<std::size_t> images0 =
      cascade_unitary(cascade).extract_permutation(false, tol);
  std::vector<std::uint32_t> images(images0.size());
  for (std::size_t i = 0; i < images0.size(); ++i) {
    images[i] = static_cast<std::uint32_t>(images0[i]);
  }
  return perm::Permutation::from_images0(images);
}

}  // namespace qsyn::sim
