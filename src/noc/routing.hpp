// Routing functions (Table I): dimension-ordered X-Y for data packets, and a
// deadlock-free minimal-adaptive algorithm (west-first turn model) for path
// configuration packets, which selects among productive ports by downstream
// credit availability so setup messages spread load across routers
// ("path selection", Section II-B).
#pragma once

#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"

namespace hybridnoc {

/// Output port for dimension-ordered X-then-Y routing from coordinate `c` to
/// `d`. Returns Port::Local when they coincide.
inline Port route_xy(Coord c, Coord d) {
  if (c.x != d.x) return c.x < d.x ? Port::East : Port::West;
  if (c.y != d.y) return c.y < d.y ? Port::South : Port::North;
  return Port::Local;
}

/// route_xy between node ids.
Port route_xy(const Mesh& mesh, NodeId here, NodeId dst);

/// Walk the XY route from `src` to `dst` without storing it: calls
/// `f(i, router, in, out)` for the i-th router on the route (i = 0 at src),
/// where `in` is the port the packet enters on (Local at src) and `out` is
/// route_xy's choice there (Local at dst). `f` returns false to stop early.
/// The walk steps coordinates, so a hop costs no division by k.
template <typename F>
void for_each_xy_hop(const Mesh& mesh, NodeId src, NodeId dst, F&& f) {
  Coord here = mesh.coord(src);
  const Coord to = mesh.coord(dst);
  Port in = Port::Local;
  for (int i = 0;; ++i) {
    const Port out = route_xy(here, to);
    if (!f(i, mesh.node(here), in, out) || out == Port::Local) return;
    in = opposite(out);
    here = Mesh::step(here, out);
  }
}

/// Productive (minimal) output ports from `here` to `dst` under the
/// west-first turn model: if the destination lies to the west, the packet
/// must finish all westward hops first (only West is productive); otherwise
/// every minimal direction is offered. Never contains Local unless here==dst.
std::vector<Port> west_first_candidates(const Mesh& mesh, NodeId here, NodeId dst);

class FaultModel;

/// Fault-aware routing for when the fabric has permanently failed links:
/// up*/down* over a BFS spanning forest of the surviving topology
/// (FaultModel::updown_next). Every route climbs toward the lowest common
/// ancestor and then descends, so the channel dependency graph stays acyclic
/// and fault-epoch routing is deadlock-free for any pattern of link/router
/// deaths that leaves the endpoints connected; up moves strictly decrease
/// tree depth, so routes also cannot livelock. Returns Port::Local when
/// here == dst or `dst` is partitioned off (caller fails the packet via the
/// reachability check).
Port route_fault_aware(const Mesh& mesh, const FaultModel& faults, NodeId here,
                       NodeId dst, Cycle now);

/// Credit-based selection among `candidates`: the port with the most free
/// downstream buffer slots wins; ties break deterministically by port order.
/// `free_credits(port)` is supplied by the router.
template <typename FreeCreditsFn>
Port select_by_credits(const std::vector<Port>& candidates, FreeCreditsFn free_credits) {
  HN_CHECK(!candidates.empty());
  Port best = candidates.front();
  int best_credits = free_credits(best);
  for (size_t i = 1; i < candidates.size(); ++i) {
    const int c = free_credits(candidates[i]);
    if (c > best_credits) {
      best = candidates[i];
      best_credits = c;
    }
  }
  return best;
}

}  // namespace hybridnoc
