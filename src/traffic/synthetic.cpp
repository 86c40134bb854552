#include "traffic/synthetic.hpp"

namespace hybridnoc {

const char* traffic_pattern_name(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::UniformRandom: return "uniform-random";
    case TrafficPattern::Tornado: return "tornado";
    case TrafficPattern::Transpose: return "transpose";
    case TrafficPattern::BitComplement: return "bit-complement";
    case TrafficPattern::Shuffle: return "shuffle";
    case TrafficPattern::Hotspot: return "hotspot";
  }
  return "?";
}

std::optional<NodeId> pattern_destination(TrafficPattern pattern, const Mesh& mesh,
                                          NodeId src, Rng& rng) {
  const int k = mesh.k();
  const Coord c = mesh.coord(src);
  NodeId dst = src;
  switch (pattern) {
    case TrafficPattern::UniformRandom:
      dst = static_cast<NodeId>(
          rng.uniform_int(static_cast<std::uint64_t>(mesh.num_nodes())));
      break;
    case TrafficPattern::Tornado:
      // Section IV: messages from (x, y) go to (x + k/2 - 1, y). On k <= 3
      // the offset is zero — every node would map to itself and the
      // generator would silently inject nothing — so degenerate meshes fall
      // back to a uniform draw to keep the offered load well-defined.
      if (k / 2 - 1 <= 0) {
        dst = static_cast<NodeId>(
            rng.uniform_int(static_cast<std::uint64_t>(mesh.num_nodes())));
      } else {
        dst = mesh.node({(c.x + k / 2 - 1) % k, c.y});
      }
      break;
    case TrafficPattern::Transpose:
      dst = mesh.node({c.y, c.x});
      break;
    case TrafficPattern::BitComplement:
      dst = mesh.node({k - 1 - c.x, k - 1 - c.y});
      break;
    case TrafficPattern::Shuffle: {
      // Rotate the node-id bits left by one (classic perfect shuffle)
      // within the smallest power-of-two id space covering the mesh. On
      // power-of-two meshes this is the exact bit rotation; on other sizes
      // rotated ids past the last node wrap back into range (modulo), so
      // every source still offers load instead of silently dropping the
      // injection. `bits` starts at 1 so the right shift is defined even
      // for a 1-node mesh.
      const auto n = static_cast<std::uint32_t>(mesh.num_nodes());
      std::uint32_t bits = 1;
      while ((1u << bits) < n) ++bits;
      const auto s = static_cast<std::uint32_t>(src);
      const std::uint32_t rotated =
          ((s << 1) | (s >> (bits - 1))) & ((1u << bits) - 1);
      dst = static_cast<NodeId>(rotated % n);
      break;
    }
    case TrafficPattern::Hotspot: {
      // 25% of traffic targets one of four fixed hotspots near the centre.
      if (rng.bernoulli(0.25)) {
        const int h = static_cast<int>(rng.uniform_int(4));
        // Clamp the lower coordinate to 0 so tiny meshes (k <= 2, where
        // k/2 - 1 would index out of bounds at -1) keep a valid, possibly
        // degenerate hotspot set.
        const int lo = k / 2 - 1 > 0 ? k / 2 - 1 : 0;
        const Coord hot[4] = {{k / 2, k / 2},
                              {lo, k / 2},
                              {k / 2, lo},
                              {lo, lo}};
        dst = mesh.node(hot[h]);
      } else {
        dst = static_cast<NodeId>(
            rng.uniform_int(static_cast<std::uint64_t>(mesh.num_nodes())));
      }
      break;
    }
  }
  if (dst == src) return std::nullopt;
  return dst;
}

SyntheticTraffic::SyntheticTraffic(const Mesh& mesh, TrafficPattern pattern,
                                   double rate, int flits_per_packet,
                                   std::uint64_t seed)
    : mesh_(mesh),
      pattern_(pattern),
      packet_prob_(rate / static_cast<double>(flits_per_packet)),
      rng_(seed) {
  // Validate the operands separately so a failure names the bad one, and so
  // a NaN rate cannot slip through (NaN fails every ordered comparison, so
  // `rate >= 0.0` alone rejects it — but the old fused check reported the
  // derived packet probability instead of the offending input).
  HN_CHECK_MSG(flits_per_packet >= 1, "flits_per_packet must be >= 1");
  HN_CHECK_MSG(rate >= 0.0 && rate <= static_cast<double>(flits_per_packet),
               "injection rate must be a finite value in "
               "[0, flits_per_packet] flits/node/cycle");
}

}  // namespace hybridnoc
