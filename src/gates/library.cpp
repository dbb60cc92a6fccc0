#include "gates/library.h"

#include "common/error.h"

namespace qsyn::gates {

GateLibrary::GateLibrary(const mvl::PatternDomain& domain) : domain_(&domain) {
  const std::size_t n = domain.wires();
  QSYN_CHECK(n >= 2, "the gate library needs at least two wires");
  // Paper order: the controlled classes L_A, L_B, L_C, ... then the Feynman
  // classes L_AB, L_AC, L_BC, ...
  for (std::size_t control = 0; control < n; ++control) {
    for (std::size_t target = 0; target < n; ++target) {
      if (target == control) continue;
      gates_.push_back(Gate::ctrl_v(target, control));
      gates_.push_back(Gate::ctrl_v_dagger(target, control));
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      gates_.push_back(Gate::feynman(a, b));
      gates_.push_back(Gate::feynman(b, a));
    }
  }
  width_ = domain.size();
  perms_.reserve(gates_.size());
  classes_.reserve(gates_.size());
  tables_.resize(gates_.size() * width_);
  inverse_tables_.resize(gates_.size() * width_);
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    perms_.push_back(gates_[g].to_permutation(domain));
    const auto klass = gates_[g].banned_class(domain);
    QSYN_CHECK(klass.has_value(), "library gates always have a banned class");
    classes_.push_back(*klass);
    std::uint16_t* table = tables_.data() + g * width_;
    std::uint16_t* inverse = inverse_tables_.data() + g * width_;
    for (std::size_t l = 0; l < width_; ++l) {
      table[l] = static_cast<std::uint16_t>(
          perms_[g].apply(static_cast<std::uint32_t>(l + 1)) - 1);
      inverse[table[l]] = static_cast<std::uint16_t>(l);
    }
  }
  find_adjoints();
}

void GateLibrary::find_adjoints() {
  adjoints_.assign(gates_.size(), gates_.size());
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const Gate adjoint = gates_[g].adjoint();
    for (std::size_t h = 0; h < gates_.size(); ++h) {
      if (gates_[h] == adjoint) adjoints_[g] = h;
    }
  }
}

std::uint64_t GateLibrary::fingerprint() const {
  // FNV-1a continuation of the domain fingerprint (same byte-order-fixed
  // mixing as PatternDomain::fingerprint, so the value is host-independent).
  std::uint64_t h = domain_->fingerprint();
  const auto mix = [&h](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xffu;
      h *= 0x00000100000001b3ull;
    }
  };
  mix(gates_.size());
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    mix(gates_[g].packed());
    mix(classes_[g]);
  }
  return h;
}

GateLibrary GateLibrary::standard(const mvl::NQubitDomain& nq) {
  GateLibrary out(nq.domain());
  out.owned_domain_ = nq.share();
  QSYN_CHECK(out.size() == nq.library_size(),
             "standard library size must match the domain's library_size()");
  return out;
}

GateLibrary GateLibrary::standard(std::size_t wires) {
  return standard(mvl::NQubitDomain(wires));
}

const Gate& GateLibrary::gate(std::size_t index) const {
  QSYN_CHECK(index < gates_.size(), "gate index out of range");
  return gates_[index];
}

const perm::Permutation& GateLibrary::permutation(std::size_t index) const {
  QSYN_CHECK(index < perms_.size(), "gate index out of range");
  return perms_[index];
}

mvl::BannedClass GateLibrary::banned_class_of(std::size_t index) const {
  QSYN_CHECK(index < classes_.size(), "gate index out of range");
  return classes_[index];
}

std::size_t GateLibrary::index_of(const std::string& name) const {
  const Gate wanted = Gate::parse(name);
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (gates_[i] == wanted) return i;
  }
  throw qsyn::LogicError("gate not in library: " + name);
}

std::vector<std::size_t> GateLibrary::control_subset(std::size_t wire) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if ((g.kind() == GateKind::kCtrlV || g.kind() == GateKind::kCtrlVdag) &&
        g.control() == wire) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::size_t> GateLibrary::feynman_subset(std::size_t a,
                                                     std::size_t b) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.kind() == GateKind::kFeynman &&
        ((g.target() == a && g.control() == b) ||
         (g.target() == b && g.control() == a))) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::size_t> GateLibrary::feynman_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (gates_[i].kind() == GateKind::kFeynman) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> GateLibrary::controlled_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (gates_[i].kind() != GateKind::kFeynman) out.push_back(i);
  }
  return out;
}

GateLibrary GateLibrary::restricted_to(
    const std::vector<std::size_t>& indices) const {
  QSYN_CHECK(!indices.empty(), "a gate library cannot be empty");
  GateLibrary out;
  out.domain_ = domain_;
  out.owned_domain_ = owned_domain_;  // keep a standard() parent's domain alive
  out.width_ = width_;
  out.gates_.reserve(indices.size());
  out.perms_.reserve(indices.size());
  out.classes_.reserve(indices.size());
  out.tables_.reserve(indices.size() * width_);
  out.inverse_tables_.reserve(indices.size() * width_);
  for (const std::size_t index : indices) {
    out.gates_.push_back(gate(index));
    out.perms_.push_back(permutation(index));
    out.classes_.push_back(banned_class_of(index));
    out.tables_.insert(out.tables_.end(), table(index),
                       table(index) + width_);
    out.inverse_tables_.insert(out.inverse_tables_.end(),
                               inverse_table(index),
                               inverse_table(index) + width_);
  }
  out.find_adjoints();
  return out;
}

std::size_t GateLibrary::adjoint_index(std::size_t index) const {
  QSYN_CHECK(index < adjoints_.size(), "gate index out of range");
  return adjoints_[index];
}

}  // namespace qsyn::gates
