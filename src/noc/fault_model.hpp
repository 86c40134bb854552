// Data-plane hardware fault model: transient flit bit-errors on links,
// intermittently stuck links, and permanently dead links/routers, all on a
// deterministic schedule.
//
// Fail-dirty semantics: a fault corrupts a flit's payload but the flit still
// traverses the link (control fields — routing, VC id, slot arithmetic — are
// assumed separately protected in hardware). This keeps every wormhole, VC
// and credit invariant intact in-network; the per-hop CRC merely *flags* the
// corruption and the destination NI squashes the packet at assembly, leaving
// recovery to the end-to-end layer.
//
// Transient corruption is a stateless hash of (fault_seed, link, n-th
// traversal of that link): whether a given traversal corrupts depends on
// nothing but the traversal count of that one link, so the decision is
// independent of global event ordering and identical under the serial and
// parallel tick engines. In Record mode every fired corruption is logged
// as a (link, occurrence) pair; Replay mode applies exactly the recorded
// occurrences and never evaluates the hash, so replays are RNG-free and
// survive trace shrinking.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"

namespace hybridnoc {

/// Data-plane fault kinds (distinct from the control-plane config faults of
/// fault_trace's FaultAction).
enum class FaultKind : std::uint8_t {
  Transient,   ///< one flit's payload corrupted on one link traversal
  StuckLink,   ///< link corrupts every flit for a window of cycles
  DeadLink,    ///< directed link permanently corrupts everything from `start`
  DeadRouter,  ///< router dead: all its incident links behave as dead
};

inline const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::Transient: return "transient";
    case FaultKind::StuckLink: return "stuck";
    case FaultKind::DeadLink: return "dead-link";
    case FaultKind::DeadRouter: return "dead-router";
  }
  return "?";
}

/// One scheduled (or recorded) data-plane fault. For link faults `node` is
/// the upstream router and `out` the directed link's output port; DeadRouter
/// uses `node` only (out = Port::Local).
struct LinkFaultEvent {
  FaultKind kind = FaultKind::Transient;
  NodeId node = kInvalidNode;
  Port out = Port::Local;
  Cycle start = 0;     ///< activation cycle (Transient: cycle it fired)
  Cycle duration = 0;  ///< StuckLink window length; 0 elsewhere
  /// Transient only: which traversal of the link corrupted (1-based count).
  /// This — not `start` — is the replay key.
  std::uint64_t occurrence = 0;
};

class FaultModel {
 public:
  FaultModel(int k, double ber, std::uint64_t seed);

  // --- schedule (call before or during a run; activation is by cycle) ---
  void kill_link(NodeId node, Port out, Cycle at);
  void kill_router(NodeId node, Cycle at);
  void stick_link(NodeId node, Port out, Cycle at, Cycle duration);
  void add_event(const LinkFaultEvent& e);

  // --- record / replay ---
  /// Record every fired transient corruption into fired_transients().
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  /// Replay exactly these transient (link, occurrence) corruptions and stop
  /// evaluating the BER hash. State faults (stuck/dead) are still applied
  /// from the schedule, which the caller re-installs from the trace.
  void set_transient_replay(const std::vector<LinkFaultEvent>& transients);
  const std::vector<LinkFaultEvent>& fired_transients() const {
    return fired_;
  }
  /// Scheduled state faults (stuck/dead), in insertion order.
  const std::vector<LinkFaultEvent>& scheduled_events() const {
    return events_;
  }

  // --- hot path ---
  /// Count one traversal of the directed link (node, out) and decide whether
  /// this flit's payload corrupts. `out` must be a cardinal port.
  bool on_traverse(NodeId node, Port out, Cycle now);

  /// Serial pre-pass for the parallel tick engine, called once per cycle
  /// before the compute phase: refresh the topology caches and, while any
  /// permanent fault is active, materialise the spanning forest and the
  /// distance map of *every* destination — so the health queries below are
  /// pure reads for the rest of the cycle and safe from any shard thread.
  /// O(N^2) only on the cycle a fault epoch changes; a cached epoch check
  /// otherwise. Harmless (and unnecessary) under the serial engine.
  void prepare(Cycle now);

  // --- health queries (permanent faults only; stuck links are transient
  // trouble the end-to-end layer rides out, not a routing concern) ---
  bool link_failed(NodeId node, Port out, Cycle now) const;
  bool node_failed(NodeId node, Cycle now) const;
  /// Any permanent fault active at `now`? Cheap gate for routing detours.
  bool any_failed(Cycle now) const { return now >= first_perm_fault_at_; }
  /// Can a packet-switched flit still walk from `src` to `dst` over healthy
  /// links? BFS over the directed surviving topology.
  bool reachable(NodeId src, NodeId dst, Cycle now) const;
  /// Hop distance from every node to `dst` over healthy directed links
  /// (BFS on the surviving topology), cached per activated-fault epoch; -1
  /// marks nodes with no healthy path. Diagnostic companion to the routing
  /// queries below.
  const std::vector<int>& distances_to(NodeId dst, Cycle now) const;
  /// Next hop of the up*/down* route from `here` to `dst` over a BFS
  /// spanning forest of the surviving topology: up toward the lowest common
  /// ancestor, then down. Tree routes are longer than greedy
  /// shortest-surviving-path detours, but the up-then-down channel ordering
  /// is acyclic, so fault-epoch routing stays deadlock-free — greedy
  /// distance-descent routing to mixed destinations can close wormhole
  /// buffer cycles that XY's missing turns otherwise rule out. Port::Local
  /// when here == dst, when either endpoint is dead, or when the two sit in
  /// different surviving components.
  Port updown_next(NodeId here, NodeId dst, Cycle now) const;

  // --- degradation metrics ---
  /// Directed links dead at `now` (links incident to dead routers included).
  int failed_links(Cycle now) const;
  /// Directed links crossing the mesh's vertical mid-cut (the canonical
  /// bisection): total and still-healthy at `now`.
  int bisection_links_total() const { return 2 * mesh_.k(); }
  int bisection_links_alive(Cycle now) const;

  std::uint64_t traversals(NodeId node, Port out) const;
  std::uint64_t corrupted_traversals() const {
    return corrupted_.load(std::memory_order_relaxed);
  }

  const Mesh& mesh() const { return mesh_; }
  double ber() const { return ber_; }
  std::uint64_t seed() const { return seed_; }

 private:
  int link_index(NodeId node, Port out) const;
  bool link_dead_raw(NodeId node, Port out, Cycle now) const;
  /// Stuck or dead at `now` — the "does this traversal corrupt for sure"
  /// state check, broader than link_failed.
  bool link_corrupting(NodeId node, Port out, Cycle now) const;

  Mesh mesh_;
  double ber_;
  std::uint64_t seed_;
  std::uint64_t threshold_;  ///< corrupt iff hash < threshold (ber * 2^64)

  struct LinkState {
    Cycle dead_at = kCycleNever;
    std::uint64_t traversals = 0;
    /// Stuck windows [start, end); end == kCycleNever means forever.
    std::vector<std::pair<Cycle, Cycle>> stuck;
  };
  std::vector<LinkState> links_;           // node * 4 + (port - 1)
  std::vector<Cycle> router_dead_at_;      // per node
  Cycle first_perm_fault_at_ = kCycleNever;

  std::vector<LinkFaultEvent> events_;  // scheduled stuck/dead faults
  std::vector<LinkFaultEvent> fired_;   // recorded transient corruptions
  bool recording_ = false;

  bool replay_ = false;
  /// Replay keys: link_index << 44 | occurrence.
  std::unordered_set<std::uint64_t> replay_keys_;

  /// Corruptions are decided per-link by the stateless hash, so concurrent
  /// shard threads may fire them in any interleaving; a relaxed atomic sum
  /// is exact because addition commutes.
  std::atomic<std::uint64_t> corrupted_{0};

  // reachable()/distances_to() caches, invalidated whenever the set of
  // *activated* permanent faults changes (activations are monotone in time,
  // so the epoch is just a count of schedule entries with start <= now).
  // reachable(src, dst) is answered from distances_to(dst): the BFS over
  // reversed healthy links marks exactly the nodes with a healthy forward
  // path to dst, so a separate pair cache would be redundant state.
  std::uint64_t fault_epoch(Cycle now) const;
  void refresh_topology_caches(Cycle now) const;
  mutable std::uint64_t reach_epoch_ = ~std::uint64_t{0};
  mutable std::unordered_map<NodeId, std::vector<int>> dist_cache_;
  std::vector<Cycle> perm_starts_;  // sorted activation cycles

  /// BFS spanning forest of the surviving topology (one tree per connected
  /// component; an edge counts only when healthy in both directions).
  struct SpanningForest {
    std::vector<int> level;         ///< depth in its tree; -1 = dead node
    std::vector<NodeId> parent;     ///< kInvalidNode at roots / dead nodes
    std::vector<Port> to_parent;    ///< port toward parent; Local at roots
    std::vector<int> component;     ///< tree id; -1 = dead node
  };
  const SpanningForest& forest(Cycle now) const;
  mutable SpanningForest forest_;
  mutable bool forest_valid_ = false;
};

}  // namespace hybridnoc
