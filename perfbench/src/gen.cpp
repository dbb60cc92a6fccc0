#include "gen.h"

#include <unordered_map>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) {
  Prng mix(root ^ (0xd1b54a32d192ed03ull * (stream + 1)));
  mix.next();
  return mix.next();
}

const std::vector<NctGate>& nct_gates() {
  static const std::vector<NctGate> gates = [] {
    std::vector<NctGate> out;
    for (int t = 0; t < 3; ++t) out.push_back({t, -1, -1});
    for (int t = 0; t < 3; ++t) {
      for (int c = 0; c < 3; ++c) {
        if (c != t) out.push_back({t, c, -1});
      }
    }
    for (int t = 0; t < 3; ++t) {
      out.push_back({t, t == 0 ? 1 : 0, t == 2 ? 1 : 2});
    }
    return out;
  }();
  return gates;
}

Netlist random_netlist(Prng& prng, std::size_t min_gates,
                       std::size_t max_gates) {
  const std::size_t count = min_gates + prng.below(max_gates - min_gates + 1);
  Netlist netlist;
  netlist.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    netlist.push_back(nct_gates()[prng.below(nct_gates().size())]);
  }
  return netlist;
}

namespace {

// Wire w is bit (2 - w) of the pattern value: A is the most significant.
unsigned bit_of(unsigned value, int wire) { return (value >> (2 - wire)) & 1u; }

}  // namespace

Images8 encode_netlist(const Netlist& netlist) {
  Images8 images{};
  for (unsigned x = 0; x < 8; ++x) {
    unsigned v = x;
    for (const NctGate& g : netlist) {
      const bool fire = (g.control0 < 0 || bit_of(v, g.control0)) &&
                        (g.control1 < 0 || bit_of(v, g.control1));
      if (fire) v ^= 1u << (2 - g.target);
    }
    images[x] = static_cast<std::uint8_t>(v);
  }
  return images;
}

std::uint32_t pack_images(const Images8& images) {
  std::uint32_t packed = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    packed |= std::uint32_t(images[i]) << (3 * i);
  }
  return packed;
}

QueryStreams make_query_streams(std::uint64_t seed, std::size_t callers,
                                std::size_t per_caller) {
  QueryStreams out;
  std::unordered_map<std::uint32_t, std::uint32_t> index;
  out.streams.resize(callers);
  for (std::size_t c = 0; c < callers; ++c) {
    Prng prng(derive_seed(seed, c));
    std::vector<std::uint32_t>& stream = out.streams[c];
    stream.reserve(per_caller);
    for (std::size_t i = 0; i < per_caller; ++i) {
      const Images8 images = encode_netlist(random_netlist(prng, 3, 5));
      const auto [it, fresh] = index.try_emplace(
          pack_images(images), static_cast<std::uint32_t>(out.targets.size()));
      if (fresh) out.targets.push_back(images);
      stream.push_back(it->second);
    }
  }
  return out;
}

TrafficItem TenantTraffic::next() {
  TrafficItem item;
  const std::uint64_t roll = prng_.below(100);
  item.kind = roll < 2    ? TrafficKind::kFlip
              : roll < 22 ? TrafficKind::kDistribution
                          : TrafficKind::kStepOrSample;
  item.input = static_cast<std::uint32_t>(prng_.below(input_words_));
  return item;
}

}  // namespace perfbench
