#include "synth/wire_symmetry.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>

#include "common/error.h"
#include "mvl/domain.h"
#include "mvl/pattern.h"
#include "synth/flat_perm_store.h"

namespace qsyn::synth {

namespace {

// Position of `sigma` in the next_permutation order of S_n (its Lehmer
// code read as a factorial-base number).
std::size_t rank_of(const std::vector<std::size_t>& sigma) {
  std::size_t rank = 0;
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    std::size_t smaller_later = 0;
    for (std::size_t j = i + 1; j < sigma.size(); ++j) {
      smaller_later += sigma[j] < sigma[i] ? 1 : 0;
    }
    rank = rank * (sigma.size() - i) + smaller_later;
  }
  return rank;
}

}  // namespace

WireSymmetry::WireSymmetry(const gates::GateLibrary& library)
    : width_(library.domain().size()) {
  const mvl::PatternDomain& domain = library.domain();
  const std::size_t wires = domain.wires();
  QSYN_CHECK(wires <= 5, "wire symmetry supports up to 5 wires");

  // Label l's image under σ, if the domain holds the moved pattern. A
  // pattern's code is the sum of its wire values times per-wire place
  // values, so moving wires re-weights the values.
  std::vector<std::uint32_t> place(wires);
  for (std::size_t w = 0; w < wires; ++w) {
    mvl::Pattern unit(wires);
    unit.set(w, static_cast<mvl::Quat>(1));
    place[w] = unit.code();
  }
  std::vector<std::uint32_t> values(width_ * wires);
  std::vector<std::int32_t> label_of_code(std::size_t{1} << (2 * wires), -1);
  for (std::uint32_t label = 1; label <= width_; ++label) {
    const mvl::Pattern& p = domain.pattern(label);
    for (std::size_t w = 0; w < wires; ++w) {
      values[(label - 1) * wires + w] = static_cast<std::uint32_t>(p.get(w));
    }
    label_of_code[p.code()] = static_cast<std::int32_t>(label - 1);
  }
  std::vector<std::uint32_t> moved_place(wires);
  const auto relabel_into = [&](const std::vector<std::size_t>& sigma,
                                std::vector<std::uint16_t>& forward) {
    for (std::size_t w = 0; w < wires; ++w) moved_place[w] = place[sigma[w]];
    for (std::size_t l = 0; l < width_; ++l) {
      std::uint32_t code = 0;
      for (std::size_t w = 0; w < wires; ++w) {
        code += values[l * wires + w] * moved_place[w];
      }
      if (label_of_code[code] < 0) return false;
      forward[l] = static_cast<std::uint16_t>(label_of_code[code]);
    }
    return true;
  };

  std::map<std::vector<std::uint16_t>, std::size_t> gate_of;
  for (std::size_t g = 0; g < library.size(); ++g) {
    gate_of.emplace(std::vector<std::uint16_t>(library.table(g),
                                               library.table(g) + width_),
                    g);
  }

  // Does σ map the domain, L and the banned classes onto themselves?
  std::vector<std::uint16_t> forward(width_);
  std::vector<std::uint16_t> conjugated(width_);
  std::vector<mvl::BannedClass> klass(domain.num_classes());
  const auto fits = [&](const std::vector<std::size_t>& sigma) {
    if (!relabel_into(sigma, forward)) return false;
    for (std::size_t w = 0; w < wires; ++w) {
      klass[domain.control_class(w)] = domain.control_class(sigma[w]);
      for (std::size_t v = w + 1; v < wires; ++v) {
        klass[domain.feynman_class(w, v)] =
            domain.feynman_class(sigma[w], sigma[v]);
      }
    }
    const auto relabel_mask = [&klass](std::uint32_t mask) {
      std::uint32_t out = 0;
      for (std::size_t c = 0; c < klass.size(); ++c) {
        if ((mask >> c & 1u) != 0) out |= 1u << klass[c];
      }
      return out;
    };
    for (std::uint32_t label = 1; label <= width_; ++label) {
      if (domain.banned_mask(forward[label - 1] + 1u) !=
          relabel_mask(domain.banned_mask(label))) {
        return false;
      }
    }
    for (std::size_t g = 0; g < library.size(); ++g) {
      const std::uint16_t* table = library.table(g);
      for (std::size_t l = 0; l < width_; ++l) {
        conjugated[forward[l]] = forward[table[l]];
      }
      const auto image = gate_of.find(conjugated);
      if (image == gate_of.end() || library.banned_class_of(image->second) !=
                                        klass[library.banned_class_of(g)]) {
        return false;
      }
    }
    return true;
  };

  // The fitting σ form a group H, so the search checks few of them: a
  // fitting σ grows H to the group it generates with H, and a failing σ
  // rules out its whole coset σH (σh fitting would make σ = (σh)h^-1 fit).
  std::vector<std::vector<std::size_t>> all;  // S_n in next_permutation order
  std::vector<std::size_t> sigma(wires);
  std::iota(sigma.begin(), sigma.end(), std::size_t{0});
  do {
    all.push_back(sigma);
  } while (std::next_permutation(sigma.begin(), sigma.end()));
  enum : char { kUnknown, kIn, kOut };
  std::vector<char> status(all.size(), kUnknown);
  std::vector<std::size_t> group{0};  // ranks; all[0] is the identity
  status[0] = kIn;
  std::vector<std::size_t> generators;
  std::vector<std::size_t> ruled_out;
  std::vector<std::size_t> ab(wires);
  const auto compose = [&](std::size_t a, std::size_t b) {
    for (std::size_t w = 0; w < wires; ++w) ab[w] = all[a][all[b][w]];
    return rank_of(ab);
  };
  for (std::size_t candidate = 1; candidate < all.size(); ++candidate) {
    if (status[candidate] != kUnknown) continue;
    if (fits(all[candidate])) {
      generators.push_back(candidate);
      for (std::size_t i = 0; i < group.size(); ++i) {  // closure under H·gens
        for (const std::size_t g : generators) {
          const std::size_t product = compose(group[i], g);
          if (status[product] == kIn) continue;
          status[product] = kIn;
          group.push_back(product);
        }
      }
    } else {
      ruled_out.push_back(candidate);
    }
    for (const std::size_t out : ruled_out) {
      for (const std::size_t h : group) status[compose(out, h)] = kOut;
    }
  }

  forward_.resize(group.size() * width_);
  inverse_.resize(group.size() * width_);
  for (std::size_t rank = 0; rank < all.size(); ++rank) {
    if (status[rank] != kIn) continue;
    const bool in_domain = relabel_into(all[rank], forward);
    QSYN_CHECK(in_domain, "group member must map the domain onto itself");
    std::copy(forward.begin(), forward.end(),
              forward_.begin() + wire_maps_.size() * width_);
    std::uint16_t* inverse_e = inverse_.data() + wire_maps_.size() * width_;
    for (std::size_t l = 0; l < width_; ++l) {
      inverse_e[forward[l]] = static_cast<std::uint16_t>(l);
    }
    wire_maps_.push_back(all[rank]);
  }

  // π_a ∘ π_b = π_(σ_a ∘ σ_b).
  std::vector<std::size_t> rank(order());
  std::vector<std::uint32_t> index_of(all.size(), 0);
  for (std::size_t e = 0; e < order(); ++e) {
    rank[e] = rank_of(wire_maps_[e]);
    index_of[rank[e]] = static_cast<std::uint32_t>(e);
  }
  product_.resize(order() * order());
  for (std::size_t a = 0; a < order(); ++a) {
    for (std::size_t b = 0; b < order(); ++b) {
      product_[a * order() + b] = index_of[compose(rank[a], rank[b])];
    }
  }

  // Orbit-hash weights, keyed by the least label of each label's orbit.
  const auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  hash_a_.resize(width_);
  hash_b_.resize(width_);
  for (std::size_t l = 0; l < width_; ++l) {
    std::uint64_t least = l;
    for (std::size_t e = 0; e < order(); ++e) {
      least = std::min<std::uint64_t>(least, forward_[e * width_ + l]);
    }
    hash_a_[l] = mix(2 * least + 1);
    hash_b_[l] = mix(2 * least + 2);
  }
}

void WireSymmetry::conjugate(std::size_t e, const std::uint16_t* row,
                             std::size_t label_bytes, std::uint8_t* out) const {
  const std::uint16_t* forward = forward_.data() + e * width_;
  const std::uint16_t* inverse = inverse_.data() + e * width_;
  if (label_bytes == 1) {
    for (std::size_t l = 0; l < width_; ++l) {
      out[l] = static_cast<std::uint8_t>(forward[row[inverse[l]]]);
    }
  } else {
    for (std::size_t l = 0; l < width_; ++l) {
      FlatPermStore::write_label(out, l, 2, forward[row[inverse[l]]]);
    }
  }
}

void WireSymmetry::moved_labels(const std::uint16_t* row,
                                std::vector<std::uint16_t>& moved) const {
  moved.clear();
  for (std::size_t l = 0; l < width_; ++l) {
    if (row[l] != l) moved.push_back(static_cast<std::uint16_t>(l));
  }
}

bool WireSymmetry::maps(std::size_t e, const std::uint16_t* a,
                        const std::uint16_t* b,
                        const std::vector<std::uint16_t>& moved) const {
  // π_e a π_e^-1 = b  <=>  b[π_e(m)] = π_e(a[m]) for every label m. If that
  // holds on the labels a moves, π_e maps them into the labels b moves
  // (b[π_e(m)] = π_e(a[m]) != π_e(m)), and onto them when a and b move as
  // many; the labels a fixes then go to labels b fixes, where it holds
  // trivially. So the moved labels are the only ones to check.
  const std::uint16_t* forward = forward_.data() + e * width_;
  for (const std::uint16_t m : moved) {
    if (b[forward[m]] != forward[a[m]]) return false;
  }
  return true;
}

std::size_t WireSymmetry::orbit_size(const std::uint16_t* row,
                                     std::vector<std::uint16_t>& moved) const {
  moved_labels(row, moved);
  std::size_t stabilizer = 1;  // the identity
  for (std::size_t e = 1; e < order(); ++e) {
    stabilizer += maps(e, row, row, moved) ? 1 : 0;
  }
  return order() / stabilizer;
}

void WireSymmetry::orbit_elements(const std::uint16_t* row,
                                  std::vector<std::uint32_t>& elements,
                                  OrbitScratch& scratch) const {
  const std::size_t n = order();
  moved_labels(row, scratch.moved);
  std::vector<std::uint32_t>& stabilizer = scratch.stabilizer;
  stabilizer.clear();
  for (std::size_t e = 0; e < n; ++e) {
    if (maps(e, row, row, scratch.moved)) {
      stabilizer.push_back(static_cast<std::uint32_t>(e));
    }
  }
  elements.clear();
  if (stabilizer.size() == 1) {  // the identity alone: every conjugate differs
    elements.resize(n);
    std::iota(elements.begin(), elements.end(), std::uint32_t{0});
    return;
  }
  // conj(e ∘ s) = conj(e) for s in the stabilizer: keep the first element
  // of each coset e ∘ Stab.
  std::vector<char>& covered = scratch.covered;
  covered.assign(n, 0);
  for (std::size_t e = 0; e < n; ++e) {
    if (covered[e] != 0) continue;
    elements.push_back(static_cast<std::uint32_t>(e));
    for (const std::uint32_t s : stabilizer) covered[product_[e * n + s]] = 1;
  }
}

void WireSymmetry::canonicalize(const std::uint16_t* row,
                                std::size_t label_bytes, std::uint8_t* out,
                                std::vector<std::uint32_t>& candidates) const {
  candidates.resize(order());
  std::iota(candidates.begin(), candidates.end(), std::uint32_t{0});
  std::size_t live = candidates.size();
  std::size_t l = 0;
  for (; l < width_ && live > 1; ++l) {
    // Keep the elements whose conjugate reaches the least label here; the
    // kept prefix of `candidates` never overtakes the read position.
    std::uint32_t best = UINT32_MAX;
    std::size_t kept = 0;
    for (std::size_t j = 0; j < live; ++j) {
      const std::uint32_t e = candidates[j];
      const std::uint32_t value = conjugate_label(e, row, l);
      if (value < best) {
        best = value;
        kept = 0;
      }
      if (value == best) candidates[kept++] = e;
    }
    FlatPermStore::write_label(out, l, label_bytes, best);
    live = kept;
  }
  // One element left (or every survivor yields the same row): copy the rest.
  for (; l < width_; ++l) {
    FlatPermStore::write_label(out, l, label_bytes,
                               conjugate_label(candidates[0], row, l));
  }
}

bool WireSymmetry::is_conjugate(const std::uint16_t* a, const std::uint16_t* b,
                                std::vector<std::uint16_t>& moved) const {
  moved_labels(a, moved);
  std::size_t b_moved = 0;
  for (std::size_t l = 0; l < width_; ++l) b_moved += b[l] != l ? 1 : 0;
  if (moved.size() != b_moved) return false;
  for (std::size_t e = 0; e < order(); ++e) {
    if (maps(e, a, b, moved)) return true;
  }
  return false;
}

}  // namespace qsyn::synth
