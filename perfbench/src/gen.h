// perfbench/src/gen.h
//
// The benchmark's input generators. Everything here is independent of the
// qsyn library under test: the benchmark's own PRNG, its own NCT netlist
// model and NCT -> permutation encoder (the reference the synthesis answers
// are checked against), and the serving traffic generator. The same seed
// always yields the same inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and fully specified, so generated inputs do not
/// depend on the standard library's distributions.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0. The modulo bias is below 2^-40 for
  /// the small bounds used here.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a root seed and a stream index.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream);

// --- 3-wire NCT netlists ----------------------------------------------------

/// One NOT / CNOT / Toffoli gate on wires A, B, C (0 = A, the most
/// significant bit of the binary value). Unused controls are -1.
struct NctGate {
  int target = 0;
  int control0 = -1;
  int control1 = -1;
};

using Netlist = std::vector<NctGate>;

/// The 12 distinct NCT gates on 3 wires: 3 NOT, 6 CNOT, 3 Toffoli.
const std::vector<NctGate>& nct_gates();

/// A uniformly random netlist of `min_gates`..`max_gates` gates.
Netlist random_netlist(Prng& prng, std::size_t min_gates,
                       std::size_t max_gates);

/// 0-based image table of the netlist on the 8 binary patterns in
/// binary-value order (pattern ABC has value 4A + 2B + C). The gates act
/// left to right.
using Images8 = std::array<std::uint8_t, 8>;
Images8 encode_netlist(const Netlist& netlist);

/// Packs an image table into 24 bits (3 bits per point), a dense map key.
std::uint32_t pack_images(const Images8& images);

/// The synth_queries input: per caller, a stream of target indices into one
/// table of distinct targets (first-seen order).
struct QueryStreams {
  std::vector<Images8> targets;
  std::vector<std::vector<std::uint32_t>> streams;  // [caller][i]
};

/// `callers` streams of `per_caller` random 3..5-gate netlists each, encoded.
QueryStreams make_query_streams(std::uint64_t seed, std::size_t callers,
                                std::size_t per_caller);

// --- serving traffic --------------------------------------------------------

enum class TrafficKind : std::uint8_t { kStepOrSample, kDistribution, kFlip };

struct TrafficItem {
  TrafficKind kind = TrafficKind::kStepOrSample;
  std::uint32_t input = 0;
};

/// One tenant's request stream: ~2 % backend flips, ~20 % distribution
/// requests, the rest steps (automata) or samples (QRNGs), inputs uniform in
/// [0, input_words). Request i depends only on (seed, i).
class TenantTraffic {
 public:
  TenantTraffic(std::uint64_t seed, std::uint32_t input_words)
      : prng_(seed), input_words_(input_words) {}
  TrafficItem next();

 private:
  Prng prng_;
  std::uint32_t input_words_;
};

/// Stable 64-bit mixing for result digests (FNV-1a over 64-bit words).
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      value_ ^= (word >> (8 * i)) & 0xffu;
      value_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
