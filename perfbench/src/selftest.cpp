// perfbench_selftest: checks of the benchmark's own input generators.
//
//   - the same seed gives the same query targets and the same serve traffic,
//     another seed different ones;
//   - the NCT -> permutation encoder against hand-computed Toffoli and Peres
//     images;
//   - the traffic mix is near its nominal 2 % flips / 20 % distributions.
//
// Exit status 0 when every check passes. Run by perfbench/test_perfbench.py.
#include <cstdio>
#include <string>
#include <vector>

#include "gen.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

using perfbench::Images8;
using perfbench::NctGate;

// Pattern value 4A + 2B + C; wires: 0 = A, 1 = B, 2 = C.
constexpr NctGate kNotA{0, -1, -1};
constexpr NctGate kCnotBA{1, 0, -1};         // B ^= A
constexpr NctGate kToffoliCAB{2, 0, 1};      // C ^= A B

void encoder_matches_hand_computed_images() {
  // Toffoli: only 110 <-> 111 swap.
  expect(perfbench::encode_netlist({kToffoliCAB}) ==
             Images8{0, 1, 2, 3, 4, 5, 7, 6},
         "Toffoli images");
  // Peres (P = A, Q = B^A, R = C^AB) = Toffoli then CNOT:
  // 100 -> 110, 101 -> 111, 110 -> 101, 111 -> 100; the paper's (5,7,6,8).
  expect(perfbench::encode_netlist({kToffoliCAB, kCnotBA}) ==
             Images8{0, 1, 2, 3, 6, 7, 5, 4},
         "Peres images");
  // Gate order matters: CNOT first feeds Q into the Toffoli's control.
  expect(perfbench::encode_netlist({kCnotBA, kToffoliCAB}) ==
             Images8{0, 1, 2, 3, 7, 6, 4, 5},
         "CNOT-then-Toffoli images");
  expect(perfbench::encode_netlist({kNotA}) == Images8{4, 5, 6, 7, 0, 1, 2, 3},
         "NOT A images");
  expect(perfbench::encode_netlist({}) == Images8{0, 1, 2, 3, 4, 5, 6, 7},
         "empty netlist is the identity");
  expect(perfbench::nct_gates().size() == 12, "12 NCT gates on 3 wires");
}

void query_streams_are_seed_deterministic() {
  const auto a = perfbench::make_query_streams(7, 3, 2000);
  const auto b = perfbench::make_query_streams(7, 3, 2000);
  const auto c = perfbench::make_query_streams(8, 3, 2000);
  expect(a.streams == b.streams && a.targets == b.targets,
         "same seed, same query streams");
  expect(a.streams != c.streams, "another seed, other query streams");
  bool bijective = true;
  for (const Images8& t : a.targets) {
    unsigned seen = 0;
    for (const std::uint8_t v : t) seen |= 1u << v;
    bijective = bijective && seen == 0xffu;
  }
  expect(bijective, "every target is a permutation of the 8 patterns");
}

void traffic_is_seed_deterministic() {
  perfbench::TenantTraffic a(99, 8), b(99, 8), c(100, 8);
  bool same = true, differs = false;
  std::size_t flips = 0, distributions = 0;
  constexpr std::size_t kCount = 100000;
  for (std::size_t i = 0; i < kCount; ++i) {
    const auto x = a.next(), y = b.next(), z = c.next();
    same = same && x.kind == y.kind && x.input == y.input;
    differs = differs || x.kind != z.kind || x.input != z.input;
    flips += x.kind == perfbench::TrafficKind::kFlip;
    distributions += x.kind == perfbench::TrafficKind::kDistribution;
    expect(x.input < 8, "input within range");
  }
  expect(same, "same seed, same traffic");
  expect(differs, "another seed, other traffic");
  expect(flips > kCount * 15 / 1000 && flips < kCount * 25 / 1000,
         "about 2 % backend flips");
  expect(distributions > kCount * 18 / 100 && distributions < kCount * 22 / 100,
         "about 20 % distribution requests");
}

}  // namespace

int main() {
  encoder_matches_hand_computed_images();
  query_streams_are_seed_deterministic();
  traffic_is_seed_deterministic();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
