// qsyn/mvl/domain.h
//
// Pattern domains: the ordered, labeled sets of quaternary patterns on which
// circuits act as permutations.
//
// Two orderings are used by the paper and reproduced exactly here:
//
//  * Full domain (Table 1, used for the 2-qubit illustration): all 4^n
//    patterns, ordered by (set of mixed wires as a bitmask, then pattern
//    code). This puts the 2^n binary patterns first and groups the
//    don't-care rows the way the paper prints them.
//
//  * Reduced domain (the 3-qubit synthesis domain of Section 3): only the
//    "permutable" patterns — those containing at least one value 1, plus the
//    all-zero pattern. Ordering: the 2^n binary patterns ascending, then the
//    remaining mixed patterns ascending by code. For n = 3 this yields the
//    paper's 38 labels, its printed gate cycles, and its banned sets N_A,
//    N_B, N_C, N_AB, N_AC, N_BC verbatim.
//
// Labels are 1-based (as in the paper). The set S of binary labels is
// always {1, ..., 2^n}.
//
// Banned-set classes: class indices 0..n-1 are the "control classes" (class
// of wire w bans labels whose wire w is mixed; used by controlled-V/V+ gates
// with control w), and classes n..n+C(n,2)-1 are the "Feynman classes"
// (class of pair {i,j} bans labels where wire i or j is mixed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mvl/pattern.h"

namespace qsyn::mvl {

/// Identifies one banned-set class; see file comment for the numbering.
using BannedClass = std::uint32_t;

/// An ordered, labeled pattern space for a fixed wire count.
class PatternDomain {
 public:
  /// Full 4^n domain in (mixed-mask, code) order; reproduces Table 1.
  static PatternDomain full(std::size_t wires);

  /// Reduced "permutable" domain; reproduces the 38-label space for n = 3.
  static PatternDomain reduced(std::size_t wires);

  [[nodiscard]] std::size_t wires() const { return wires_; }

  /// Number of labels (= patterns) in the domain.
  [[nodiscard]] std::size_t size() const { return patterns_.size(); }

  /// Number of binary patterns = |S| = 2^wires.
  [[nodiscard]] std::size_t binary_count() const { return 1u << wires_; }

  /// Pattern for a 1-based label.
  [[nodiscard]] const Pattern& pattern(std::uint32_t label) const;

  /// 1-based label of a pattern; throws qsyn::LogicError if the pattern is
  /// not in the domain (possible only for reduced domains).
  [[nodiscard]] std::uint32_t label_of(const Pattern& p) const;

  /// True iff the pattern belongs to the domain.
  [[nodiscard]] bool contains(const Pattern& p) const;

  /// The S set of binary labels {1, ..., 2^wires}.
  [[nodiscard]] std::vector<std::uint32_t> s_set() const;

  // --- banned-set machinery --------------------------------------------------

  /// Class index for controlled gates whose control is `wire`.
  [[nodiscard]] BannedClass control_class(std::size_t wire) const;

  /// Class index for Feynman gates on the unordered pair {a, b}.
  [[nodiscard]] BannedClass feynman_class(std::size_t a, std::size_t b) const;

  /// Total number of banned-set classes (= wires + C(wires,2)).
  [[nodiscard]] std::size_t num_classes() const;

  /// Bitmask over classes: bit c set iff `label` lies in class c's banned set.
  [[nodiscard]] std::uint32_t banned_mask(std::uint32_t label) const;

  /// The classes a cascade may not apply next, given the 0-based images of
  /// the binary labels under it (images0[0..binary_count())): the OR of
  /// their banned masks. Unchecked: the engines' inner loops call it.
  [[nodiscard]] std::uint32_t banned_of(const std::uint16_t* images0) const {
    std::uint32_t mask = 0;
    for (std::size_t s = 0; s < binary_count(); ++s) {
      mask |= banned_masks_[images0[s]];
    }
    return mask;
  }

  /// Alias of banned_mask — the name the n-qubit domain API exposes.
  [[nodiscard]] std::uint32_t class_mask(std::uint32_t label) const {
    return banned_mask(label);
  }

  /// The banned set of a class, as ascending 1-based labels (the paper's
  /// N_A, N_B, N_C, N_AB, N_AC, N_BC for the reduced 3-wire domain).
  [[nodiscard]] std::vector<std::uint32_t> banned_set(BannedClass c) const;

  /// Human-readable class name: "N_A", "N_BC", ... (wires named A, B, C...).
  [[nodiscard]] std::string class_name(BannedClass c) const;

  /// Inverse of class_name: parses "N_A" / "N_BC" back to the class index.
  /// Throws qsyn::ParseError on malformed names or wires beyond the domain.
  [[nodiscard]] BannedClass class_from_name(const std::string& name) const;

  /// Content fingerprint (FNV-1a over wires, label order, and banned
  /// masks): equal iff two domains present the same labels in the same
  /// order with the same class structure. The persistent catalog stores it
  /// to reject catalogs opened against a different domain.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  PatternDomain(std::size_t wires, std::vector<Pattern> patterns);

  std::size_t wires_;
  std::vector<Pattern> patterns_;          // index = label-1
  std::vector<std::uint32_t> label_by_code_;  // code -> label, 0 = absent
  std::vector<std::uint32_t> banned_masks_;   // index = label-1
};

}  // namespace qsyn::mvl
