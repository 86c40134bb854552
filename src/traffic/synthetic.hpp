// Synthetic traffic patterns (Section IV): uniform random, tornado and
// transpose as evaluated in the paper, plus the bit-complement, shuffle and
// hotspot patterns commonly used alongside them (Dally & Towles).
#pragma once

#include <optional>
#include <string>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace hybridnoc {

enum class TrafficPattern {
  UniformRandom,
  Tornado,
  Transpose,
  BitComplement,
  Shuffle,
  Hotspot,
};

const char* traffic_pattern_name(TrafficPattern p);

/// Destination for a packet from `src` under `pattern`. Returns nullopt when
/// the pattern maps the node to itself (such nodes do not inject).
std::optional<NodeId> pattern_destination(TrafficPattern pattern, const Mesh& mesh,
                                          NodeId src, Rng& rng);

/// Bernoulli packet injection process over all nodes of a mesh.
///
/// `rate` is offered load in flits/node/cycle in payload-equivalent 5-flit
/// packets (the paper's x-axis); each node independently generates a packet
/// with probability rate / flits_per_packet per cycle.
class SyntheticTraffic {
 public:
  SyntheticTraffic(const Mesh& mesh, TrafficPattern pattern, double rate,
                   int flits_per_packet, std::uint64_t seed);

  /// Produce this cycle's injections; calls `emit(src, dst)` for each.
  template <typename EmitFn>
  void generate(EmitFn emit) {
    for (NodeId n = 0; n < mesh_.num_nodes(); ++n) {
      if (!rng_.bernoulli(packet_prob_)) continue;
      if (const auto dst = pattern_destination(pattern_, mesh_, n, rng_)) {
        emit(n, *dst);
      }
    }
  }

  double packet_probability() const { return packet_prob_; }
  TrafficPattern pattern() const { return pattern_; }

 private:
  const Mesh& mesh_;
  TrafficPattern pattern_;
  double packet_prob_;
  Rng rng_;
};

}  // namespace hybridnoc
