#include "noc/routing.hpp"

#include "noc/fault_model.hpp"

namespace hybridnoc {

Port route_xy(const Mesh& mesh, NodeId here, NodeId dst) {
  return route_xy(mesh.coord(here), mesh.coord(dst));
}

std::vector<Port> west_first_candidates(const Mesh& mesh, NodeId here, NodeId dst) {
  const Coord c = mesh.coord(here);
  const Coord d = mesh.coord(dst);
  if (here == dst) return {Port::Local};
  // West-first: westward moves are not adaptive — they must all happen
  // before any other turn, which removes the turns that close deadlock
  // cycles (Glass & Ni).
  if (c.x > d.x) return {Port::West};
  std::vector<Port> out;
  if (c.x < d.x) out.push_back(Port::East);
  if (c.y > d.y) out.push_back(Port::North);
  if (c.y < d.y) out.push_back(Port::South);
  return out;
}

Port route_fault_aware(const Mesh& mesh, const FaultModel& faults, NodeId here,
                       NodeId dst, Cycle now) {
  (void)mesh;
  // Up*/down* over a BFS spanning forest of the surviving topology. A greedy
  // shortest-surviving-path detour looks tempting, but distance-descent
  // routes to different destinations take turns in every direction and can
  // close wormhole buffer cycles — observed as a hard fabric deadlock under
  // a sustained multi-flow fault storm. Tree routes cost extra hops yet keep
  // the channel dependency graph acyclic (all up moves strictly precede all
  // down moves), so every fault epoch stays deadlock-free by construction.
  return faults.updown_next(here, dst, now);
}

}  // namespace hybridnoc
