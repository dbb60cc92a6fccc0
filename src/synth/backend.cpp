#include "synth/backend.h"

#include <cstdint>
#include <utility>

#include "common/error.h"

namespace qsyn::synth {

NotStripped strip_not_prefix(std::size_t wires,
                             const perm::Permutation& target) {
  const std::uint32_t binary_count = 1u << wires;
  QSYN_CHECK(target.degree() <= binary_count,
             "target permutation degree exceeds 2^wires");
  const perm::Permutation g = target.extended_to(binary_count);

  // Theorem 2/3: choose d[0] in N with (d[0]^{-1} * g)(1) = 1. Writing a for
  // d[0] (an involution), h(1) = g(a(1)) = 1 forces a(1) = g^{-1}(1), i.e.
  // the NOT mask is the bit pattern of label g^{-1}(1).
  const std::uint32_t mask = g.inverse().apply(1) - 1;
  NotStripped out;
  for (std::size_t w = 0; w < wires; ++w) {
    if ((mask >> (wires - 1 - w) & 1u) != 0) {
      out.not_prefix.push_back(gates::Gate::not_gate(w));
    }
  }
  // a as a permutation of binary labels: XOR by mask.
  std::vector<std::uint32_t> images(binary_count);
  for (std::uint32_t l = 0; l < binary_count; ++l) {
    images[l] = (l ^ mask) + 1;
  }
  const perm::Permutation a = perm::Permutation::from_images(std::move(images));
  out.core = a * g;  // a^{-1} * g with a an involution
  QSYN_CHECK(out.core.apply(1) == 1,
             "NOT-coset stripping must fix the all-zero pattern");
  return out;
}

SynthesisResult assemble_result(std::size_t wires, const NotStripped& stripped,
                                gates::Cascade core) {
  SynthesisResult result;
  result.not_prefix = stripped.not_prefix;
  result.cost = static_cast<unsigned>(core.size());
  std::vector<gates::Gate> all = stripped.not_prefix;
  all.insert(all.end(), core.sequence().begin(), core.sequence().end());
  result.core = std::move(core);
  result.circuit = gates::Cascade(wires, std::move(all));
  return result;
}

SynthesisBackend::~SynthesisBackend() = default;

std::vector<std::optional<SynthesisResult>> SynthesisBackend::synthesize_batch(
    const std::vector<perm::Permutation>& targets) {
  std::vector<std::optional<SynthesisResult>> answers;
  answers.reserve(targets.size());
  for (const perm::Permutation& target : targets) {
    answers.push_back(synthesize(target));
  }
  return answers;
}

}  // namespace qsyn::synth
