// 2D-mesh coordinate helpers. Node ids are row-major: id = y * k + x with
// x growing eastward and y growing southward.
#pragma once

#include <cmath>
#include <cstdlib>

#include "common/types.hpp"

namespace hybridnoc {

struct Coord {
  int x = 0;
  int y = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

class Mesh {
 public:
  explicit Mesh(int k) : k_(k) { HN_CHECK(k >= 2); }

  int k() const { return k_; }
  int num_nodes() const { return k_ * k_; }

  Coord coord(NodeId n) const {
    HN_CHECK(valid(n));
    return {static_cast<int>(n) % k_, static_cast<int>(n) / k_};
  }

  NodeId node(Coord c) const {
    HN_CHECK(c.x >= 0 && c.x < k_ && c.y >= 0 && c.y < k_);
    return static_cast<NodeId>(c.y * k_ + c.x);
  }

  bool valid(NodeId n) const { return n >= 0 && n < num_nodes(); }

  int hop_distance(NodeId a, NodeId b) const {
    return hop_distance(coord(a), coord(b));
  }
  static int hop_distance(Coord a, Coord b) {
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
  }

  /// True if `a` and `b` are mesh neighbours (Manhattan distance 1); this is
  /// the "vicinity" used by vicinity-sharing (Section III-A2).
  bool adjacent(NodeId a, NodeId b) const { return hop_distance(a, b) == 1; }

  bool has_neighbor(NodeId n, Port p) const {
    const Coord c = coord(n);
    switch (p) {
      case Port::North: return c.y > 0;
      case Port::South: return c.y < k_ - 1;
      case Port::West: return c.x > 0;
      case Port::East: return c.x < k_ - 1;
      case Port::Local: return false;
    }
    return false;
  }

  NodeId neighbor(NodeId n, Port p) const {
    HN_CHECK(has_neighbor(n, p));
    return node(step(coord(n), p));
  }

  /// The coordinate one hop from `c` through port `p` (Local: `c` itself).
  /// Branch-free: the fast model steps every packet hop through it.
  static Coord step(Coord c, Port p) {
    c.x += (p == Port::East) - (p == Port::West);
    c.y += (p == Port::South) - (p == Port::North);
    return c;
  }

 private:
  int k_;
};

}  // namespace hybridnoc
