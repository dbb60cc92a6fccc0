// qsyn/gates/library.h
//
// The paper's quantum gate library L for n wires: every controlled-V,
// controlled-V+ and Feynman gate over ordered wire pairs — 3·n·(n-1) gates,
// 18 for the 3-qubit case — grouped into the banned-set classes
// L_A, L_B, L_C (controlled gates by control wire) and L_AB, L_AC, L_BC
// (Feynman gates by wire pair). NOT gates are *not* in L; the paper handles
// them separately through the coset decomposition of Theorem 2.
//
// The library also holds the label tables every synthesis engine reads,
// built once at construction and sliced by restricted_to: per gate, its
// image table and inverse table over the domain's 0-based labels (label
// l + 1 of the paper's 1-based numbering is entry l; uint16 covers every
// domain up to 8 wires), its banned-class bit, and its adjoint's index.
// The FMCF closure (synth/fmcf.h), the DFS (synth/search/topology_search.h),
// WireSymmetry and McExpressor::count_sequences read them, with
// PatternDomain::banned_of for the banned test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <cstddef>
#include <memory>

#include "gates/gate.h"
#include "mvl/domain.h"
#include "mvl/nqubit.h"
#include "perm/permutation.h"

namespace qsyn::gates {

/// The library L plus cached per-gate permutations for one pattern domain.
class GateLibrary {
 public:
  /// Builds L for `domain.wires()` wires and caches each gate's permutation
  /// of the domain labels, its label tables and its banned class.
  explicit GateLibrary(const mvl::PatternDomain& domain);

  /// The standard paper library over the reduced n-wire domain, owning its
  /// domain (no external PatternDomain lifetime to manage). Emits
  /// NQubitDomain::library_size() = 3n(n-1) gates in paper order: the
  /// control classes L_A..L_(n-1), then the Feynman classes L_AB, L_AC, ...
  /// For n = 3 this is byte-identical to the legacy hard-coded 18-gate
  /// library (golden-tested in tests/test_domain_nqubit.cpp).
  static GateLibrary standard(std::size_t wires);

  /// Same library sharing `nq`'s domain (cheap when the caller already
  /// built an NQubitDomain).
  static GateLibrary standard(const mvl::NQubitDomain& nq);

  [[nodiscard]] const mvl::PatternDomain& domain() const { return *domain_; }
  [[nodiscard]] std::size_t size() const { return gates_.size(); }

  [[nodiscard]] const Gate& gate(std::size_t index) const;
  [[nodiscard]] const perm::Permutation& permutation(std::size_t index) const;
  [[nodiscard]] mvl::BannedClass banned_class_of(std::size_t index) const;

  /// Gate `index`'s image table: entry l is the 0-based image of 0-based
  /// label l, for all domain().size() labels. Unchecked: the engines'
  /// inner loops read it.
  [[nodiscard]] const std::uint16_t* table(std::size_t index) const {
    return tables_.data() + index * width_;
  }

  /// Gate `index`'s inverse table: inverse_table(g)[table(g)[l]] == l.
  [[nodiscard]] const std::uint16_t* inverse_table(std::size_t index) const {
    return inverse_tables_.data() + index * width_;
  }

  /// 1 << banned_class_of(index): the gate is allowed after a cascade iff
  /// domain().banned_of(images) & class_bit(index) is 0. Unchecked.
  [[nodiscard]] std::uint32_t class_bit(std::size_t index) const {
    return 1u << classes_[index];
  }

  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }

  /// Index of the gate with the given paper-style name; throws if absent.
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  /// The controlled-gate class L_w (paper's L_A, L_B, L_C): indices of the
  /// 2(n-1) controlled-V/V+ gates whose control is `wire`.
  [[nodiscard]] std::vector<std::size_t> control_subset(
      std::size_t wire) const;

  /// The Feynman class L_{ab}: indices of the two CNOTs on the pair {a, b}.
  [[nodiscard]] std::vector<std::size_t> feynman_subset(std::size_t a,
                                                        std::size_t b) const;

  /// Indices of all Feynman gates.
  [[nodiscard]] std::vector<std::size_t> feynman_indices() const;

  /// Indices of all controlled-V / controlled-V+ gates.
  [[nodiscard]] std::vector<std::size_t> controlled_indices() const;

  /// Index of the adjoint gate of gate `index` (an involution on the
  /// standard L), or size() when a restricted library lacks it.
  [[nodiscard]] std::size_t adjoint_index(std::size_t index) const;

  /// A library over the same domain containing only the given gate indices
  /// (in the given order). Used by ablations and by tests that need a tiny
  /// library whose closure saturates early.
  [[nodiscard]] GateLibrary restricted_to(
      const std::vector<std::size_t>& indices) const;

  /// Content fingerprint folding the domain fingerprint with every gate's
  /// packed encoding and banned class, in library order. Witness back-walks
  /// replay gate indices, so a persistent catalog is only valid against the
  /// exact library it was enumerated with; the catalog header stores this
  /// value to enforce that.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  GateLibrary() = default;
  /// Sets adjoints_ from gates_.
  void find_adjoints();

  // Non-owning view; set for every construction path. Libraries built via
  // standard() additionally hold the domain alive through owned_domain_;
  // libraries built over a caller's PatternDomain require it to outlive them.
  const mvl::PatternDomain* domain_ = nullptr;
  std::shared_ptr<const mvl::PatternDomain> owned_domain_;
  std::vector<Gate> gates_;
  std::vector<perm::Permutation> perms_;
  std::vector<mvl::BannedClass> classes_;
  std::size_t width_ = 0;                      // domain labels per table
  std::vector<std::uint16_t> tables_;          // [gate * width_ + label0]
  std::vector<std::uint16_t> inverse_tables_;  // [gate * width_ + label0]
  std::vector<std::size_t> adjoints_;          // [gate], size() if absent
};

}  // namespace qsyn::gates
