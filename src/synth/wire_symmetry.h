// qsyn/synth/wire_symmetry.h
//
// The wire relabelings a closure is invariant under.
//
// A permutation σ of the n wires acts on patterns by moving wire w's value
// to wire σ(w), and so on the domain's labels as a permutation π_σ. When π_σ
// maps the domain onto itself, every library gate to a library gate
// (π_σ g π_σ^-1 ∈ L), and every banned-class mask to the mask of the
// relabeled classes, conjugation by π_σ commutes with the whole FMCF
// closure: it maps B[k] onto B[k] and keeps each reasonable product
// reasonable. Every B[k] is then a union of conjugation orbits, and the
// closure can expand and store one canonical row per orbit — its
// memcmp-least conjugate — instead of every row. Golubitsky & Maslov (IEEE
// Trans. Computers 61(9), 2012) reduce their 4-bit Toffoli tables the same
// way.
//
// WireSymmetry finds that subgroup of S_n by checking every σ, so the
// standard library gets all of S_n and a restricted library gets whatever
// relabelings still fit it (at least the identity). Input rows are decoded
// 0-based label arrays of the domain's width; output rows are written in
// FlatPermStore's encoding, ready to append to a store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gates/library.h"
#include "synth/flat_perm_store.h"

namespace qsyn::synth {

/// The subgroup of wire permutations a library's closure is invariant
/// under, as label permutations, with the canonicalizer built on it.
class WireSymmetry {
 public:
  /// Every wire permutation under which the library's domain, gate set and
  /// banned-class masks are invariant. Element 0 is the identity.
  explicit WireSymmetry(const gates::GateLibrary& library);

  /// Number of elements (n! for the standard library).
  [[nodiscard]] std::size_t order() const { return wire_maps_.size(); }

  /// Labels per row.
  [[nodiscard]] std::size_t width() const { return width_; }

  /// Element `e`'s wire permutation: wire w moves to wire_map(e)[w].
  [[nodiscard]] const std::vector<std::size_t>& wire_map(std::size_t e) const {
    return wire_maps_[e];
  }

  /// Element `e`'s label permutation π_e: the image of 0-based label l is
  /// relabel(e)[l].
  [[nodiscard]] const std::uint16_t* relabel(std::size_t e) const {
    return forward_.data() + e * width_;
  }

  /// Writes π_e ∘ row ∘ π_e^-1, i.e. out[π_e(l)] = π_e(row[l]), to `out`
  /// in FlatPermStore's row encoding with `label_bytes` bytes per label.
  void conjugate(std::size_t e, const std::uint16_t* row,
                 std::size_t label_bytes, std::uint8_t* out) const;

  /// Label `l` of π_e ∘ row ∘ π_e^-1: what conjugate() writes at `l`.
  [[nodiscard]] std::uint16_t conjugate_label(std::size_t e,
                                              const std::uint16_t* row,
                                              std::size_t l) const {
    const std::size_t base = e * width_;
    return forward_[base + row[inverse_[base + l]]];
  }

  /// Number of distinct conjugates of `row`: order() over the size of its
  /// stabilizer. `moved` is scratch.
  [[nodiscard]] std::size_t orbit_size(const std::uint16_t* row,
                                       std::vector<std::uint16_t>& moved) const;

  /// A hash every conjugate of `row` shares: the sum over labels l of
  /// a(l) * b(row[l]), where a and b are pseudo-random and constant on each
  /// orbit of labels under the group. Rows of one orbit hash alike; rows of
  /// different orbits rarely do, so a hash miss rules an orbit out cheaply.
  [[nodiscard]] std::uint64_t orbit_hash(const std::uint16_t* row) const {
    std::uint64_t h = 0;
    for (std::size_t l = 0; l < width_; ++l) {
      h += hash_a_[l] * hash_b_[row[l]];
    }
    return h;
  }

  /// Label `l` of π_e ∘ row ∘ π_e^-1 for a row in FlatPermStore's encoding
  /// with `label_bytes` bytes per label, read without decoding the row.
  [[nodiscard]] std::uint16_t conjugate_label(std::size_t e,
                                              const std::uint8_t* row,
                                              std::size_t label_bytes,
                                              std::size_t l) const {
    const std::size_t base = e * width_;
    const std::uint32_t label =
        FlatPermStore::read_label(row, inverse_[base + l], label_bytes);
    return forward_[base + label];
  }

  /// Buffers orbit_elements() reuses, so a warm walk allocates nothing.
  struct OrbitScratch {
    std::vector<std::uint16_t> moved;
    std::vector<std::uint32_t> stabilizer;
    std::vector<char> covered;
  };

  /// Replaces `elements` with one element per distinct conjugate of `row`:
  /// a left coset representative of row's stabilizer each, so the
  /// conjugates they yield are the orbit of `row`, each row once.
  void orbit_elements(const std::uint16_t* row,
                      std::vector<std::uint32_t>& elements,
                      OrbitScratch& scratch) const;

  /// Writes the memcmp-least (label-lexicographically least) conjugate of
  /// `row` to `out`, encoded as by conjugate(). Refines lazily in label
  /// order: each label keeps only the elements that reach the least value
  /// so far, and once one element is left the rest of the row is read off
  /// it. `candidates` is scratch.
  void canonicalize(const std::uint16_t* row, std::size_t label_bytes,
                    std::uint8_t* out,
                    std::vector<std::uint32_t>& candidates) const;

  /// True when `b` is a conjugate of `a`: π_e ∘ a ∘ π_e^-1 = b for some
  /// element e. Only the labels `a` moves are compared, so near-identity
  /// rows with large stabilizers are cheap. `moved` is scratch.
  [[nodiscard]] bool is_conjugate(const std::uint16_t* a,
                                  const std::uint16_t* b,
                                  std::vector<std::uint16_t>& moved) const;

 private:
  std::size_t width_;
  std::vector<std::vector<std::size_t>> wire_maps_;  // [e][wire]
  std::vector<std::uint16_t> forward_;               // [e * width + label]
  std::vector<std::uint16_t> inverse_;               // [e * width + label]
  std::vector<std::uint32_t> product_;  // [a * order + b] = index of a ∘ b
  std::vector<std::uint64_t> hash_a_;   // [label], constant on label orbits
  std::vector<std::uint64_t> hash_b_;   // [label], constant on label orbits

  /// Sets `moved` to the labels `row` moves.
  void moved_labels(const std::uint16_t* row,
                    std::vector<std::uint16_t>& moved) const;
  /// True when π_e ∘ a ∘ π_e^-1 = b, given `moved` = moved_labels(a) and
  /// that b moves as many labels as a does.
  [[nodiscard]] bool maps(std::size_t e, const std::uint16_t* a,
                          const std::uint16_t* b,
                          const std::vector<std::uint16_t>& moved) const;
};

}  // namespace qsyn::synth
