// The k x k mesh network: owns routers, NIs and every channel between them,
// and drives the global cycle loop. Router/NI types are injected through
// factories so the TDM hybrid network (src/tdm) reuses the same fabric
// wiring with extended components.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/config.hpp"
#include "common/geometry.hpp"
#include "noc/channel.hpp"
#include "noc/fault_model.hpp"
#include "noc/network_interface.hpp"
#include "noc/parallel_engine.hpp"
#include "noc/router.hpp"

namespace hybridnoc {

class StateWriter;
class StateReader;

/// Per-subsystem cycle-cost counters, maintained on the tick hot paths at
/// the cost of a few local increments. tools/profile_tick dumps them for any
/// config; dividing by `cycles` gives the per-cycle dispatch cost the
/// large-mesh scaling work optimizes (EXPERIMENTS.md, scaling methodology).
struct TickProfile {
  std::uint64_t cycles = 0;           ///< tick() invocations
  std::uint64_t ni_ticks = 0;         ///< NI tick dispatches
  std::uint64_t router_ticks = 0;     ///< router tick dispatches
  std::uint64_t watchdog_sweeps = 0;  ///< full watchdog scans (1024-cycle)
  std::uint64_t ff_jumps = 0;         ///< fast-forward quiescent jumps
  std::uint64_t ff_skipped_cycles = 0;  ///< cycles skipped by those jumps
  // Allocation / packet-lifetime telemetry (deltas of the process-wide
  // AllocStats counters since this network was constructed). Divided by
  // `cycles` these give the loaded path's residual allocator and refcount
  // traffic — the quantities the allocation-free overhaul drives to zero.
  std::uint64_t packets_minted = 0;   ///< make_packet calls (pool-backed)
  std::uint64_t pool_hits = 0;        ///< pooled allocs served from a free list
  std::uint64_t pool_misses = 0;      ///< pooled allocs that hit operator new
  std::uint64_t flight_acquires = 0;  ///< packet flight anchors taken
  std::uint64_t flight_releases = 0;  ///< anchors dropped (all flits consumed)
};

/// Per-run fault-tolerance state that no counter block holds (the recovery
/// machinery's event counts are in ni_counters / router_counters).
struct DegradationReport {
  std::uint64_t e2e_outstanding = 0;       ///< still unacked at report time
  std::uint64_t corrupted_traversals = 0;  ///< fault-model ground truth
  int failed_links = 0;
  int bisection_links_total = 0;
  int bisection_links_alive = 0;  ///< surviving bisection bandwidth
};

class Network {
 public:
  using RouterFactory =
      std::function<std::unique_ptr<Router>(const NocConfig&, NodeId, const Mesh&)>;
  using NiFactory = std::function<std::unique_ptr<NetworkInterface>(
      const NocConfig&, NodeId, const Mesh&)>;

  /// Packet-switched-only network (the Packet-VC4 baseline).
  explicit Network(const NocConfig& cfg);
  Network(const NocConfig& cfg, RouterFactory make_router, NiFactory make_ni);
  virtual ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advance one cycle: NIs first, then routers (all communication is
  /// channel-pipelined, so intra-cycle order is not observable). Only
  /// components with pending work are ticked — bit-identical to ticking
  /// every component every cycle, since idle ticks are deterministic no-ops
  /// whose energy constants are folded lazily (the scheduler-equivalence
  /// suite checks this against a full-sweep test oracle). The cycle runs on
  /// the sharded tick engine (noc/parallel_engine.hpp): one shard on the
  /// caller's thread at cfg.tick_threads == 1, worker threads above that —
  /// bit-identical again, for any thread count. Never inlined into
  /// fast_forward: its idle-jump loop stays small (BM_IdleFastForward).
  [[gnu::noinline]] virtual void tick();

  /// Advance until now() == target, skipping fully idle stretches in one
  /// step. Never skips a cycle where any component, or the subclass's
  /// external machinery (controller timers), has work.
  void fast_forward(Cycle target);

  Cycle now() const { return now_; }
  const Mesh& mesh() const { return mesh_; }
  const NocConfig& cfg() const { return cfg_; }
  int num_nodes() const { return mesh_.num_nodes(); }

  Router& router(NodeId n) { return *routers_[static_cast<size_t>(n)]; }
  NetworkInterface& ni(NodeId n) { return *nis_[static_cast<size_t>(n)]; }
  const Router& router(NodeId n) const { return *routers_[static_cast<size_t>(n)]; }
  const NetworkInterface& ni(NodeId n) const { return *nis_[static_cast<size_t>(n)]; }

  /// Install `fn` as the delivery handler: the network keeps the one copy
  /// and every NI calls it through a pointer.
  void set_deliver_handler(const DeliverFn& fn);
  /// Freeze/unfreeze proactive circuit setup on every NI (drain phases).
  void set_policy_frozen(bool frozen);

  /// The hardware fault model, created on first use (or at construction when
  /// cfg.link_ber > 0) and wired into every router and NI. Schedule faults
  /// on it directly (kill_link / stick_link / kill_router).
  FaultModel& ensure_fault_model();
  /// nullptr until ensure_fault_model() has run.
  FaultModel* fault_model() { return faults_.get(); }
  const FaultModel* fault_model() const { return faults_.get(); }

  /// Aggregate fault-tolerance outcome as of now().
  DegradationReport degradation_report() const;

  /// True when no flit exists anywhere: NI queues, router buffers, channels.
  bool quiescent() const;

  /// Freeze proactive policy and tick until quiescent with every credit
  /// home (or `max_cycles` have elapsed). Returns true once drained. Policy
  /// stays frozen — callers resume with set_policy_frozen(false) after the
  /// checkpoint. Credit wires are not archived, so a save before the last
  /// credit lands would restore a network one buffer slot short.
  bool drain(Cycle max_cycles);

  /// Serialize the full simulation state (NIs, routers, slot tables,
  /// scheduler-visible counters, RNGs, energy) into a sealed, digest-
  /// protected archive. Preconditions (HN_CHECK): the network is quiescent
  /// with every credit home (use drain()), no fault model is installed, and
  /// tick_threads == 1.
  /// Resuming a restored network is bit-identical to continuing this one.
  std::string save_state() const;
  /// Restore a save_state() archive into this freshly constructed network
  /// (same NocConfig, now() == 0). Throws StateError on a truncated,
  /// corrupted or mismatched archive — never aborts, so callers can treat
  /// a bad checkpoint as "recompute from scratch".
  void restore_state(const std::string& sealed);

  /// Dispatch-cost counters since construction (see TickProfile). The
  /// dispatch counts are the sum of the engine's per-shard counters.
  TickProfile tick_profile() const;

  /// Settled energy of every component as of now(). O(components) on the
  /// first query at a given cycle, O(1) when re-queried before the clock
  /// advances — callers sampling energy between ticks (the driver reads it
  /// at measure start and end) never pay the sweep twice.
  EnergyCounters total_energy() const;

  /// Every NI's / router's counter block, summed (one pass each).
  NiCounters ni_counters() const;
  RouterCounters router_counters() const;
  std::uint64_t total_flits_of_class(TrafficClass c) const;

 protected:
  /// Earliest cycle > now at which machinery outside the NIs/routers (e.g.
  /// the TDM controller's epoch/resize timers) has observable work; bounds
  /// how far fast_forward may jump. Base network: none.
  virtual Cycle external_next_event(Cycle now) const {
    (void)now;
    return kCycleNever;
  }

  /// Subclass switch for the tick engine's serial fallback: modes whose
  /// event *order* is observable (config-fault hooks, trace recording) must
  /// run cycles in the exact global component order. No effect at
  /// tick_threads == 1, whose one shard already runs in that order.
  void set_engine_force_serial(bool on);

  /// Checkpoint hooks for machinery outside the NIs/routers (the TDM
  /// controller). Called between the network header and the components.
  virtual void save_external_state(StateWriter& w) const { (void)w; }
  virtual void restore_external_state(StateReader& r) { (void)r; }

 private:
  friend class ParallelTickEngine;
  friend struct FullSweepOracle;  // test-only reference engine

  template <typename Ar, typename Self>
  static void layout(Ar& ar, Self& self);

  void build();
  void watchdog_tick();
  /// No credit in flight on any credit wire.
  bool credits_home() const;
  /// Component ids for the scheduler: NIs are [0, N), routers [N, 2N), so
  /// ascending-id order is the NIs-then-routers sweep order.
  int ni_sched_id(NodeId n) const { return n; }
  int router_sched_id(NodeId n) const { return num_nodes() + n; }

  const NocConfig cfg_;
  Mesh mesh_;
  Cycle now_ = 0;

  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  /// Raw dispatch tables mirroring routers_/nis_: the tick hot loops index
  /// these flat pointer arrays instead of chasing unique_ptr storage, so a
  /// sweep touches one contiguous cache line per 8 components.
  std::vector<Router*> router_ptrs_;
  std::vector<NetworkInterface*> ni_ptrs_;
  /// Every channel node n's router and NI consume, in one block per node;
  /// the blocks form one array in node order, so a shard's inbound
  /// channels are its node range (DESIGN.md, "Channel storage").
  struct NodeChannels;
  std::unique_ptr<NodeChannels[]> channels_;
  std::unique_ptr<FaultModel> faults_;
  DeliverFn deliver_;  ///< set_deliver_handler's; every NI points here

  /// cfg_.watchdog_stall_cycles > 0, hoisted so the per-tick check is one
  /// branch on a bool instead of a 64-bit compare.
  bool watchdog_enabled_ = false;
  mutable TickProfile profile_;
  /// AllocStats baseline at construction; tick_profile() reports deltas.
  AllocStats::Snapshot alloc_base_ = AllocStats::instance().snapshot();
  /// total_energy memo: valid while the clock stays at energy_memo_at_.
  /// Energy only mutates inside component ticks (and settle_energy, which
  /// by construction does not change the settled total at a fixed cycle),
  /// so a repeated query at one cycle is provably the same sum.
  mutable Cycle energy_memo_at_ = kCycleNever;
  mutable EnergyCounters energy_memo_;
  /// Sharded tick engine: cfg.tick_threads shards, capped at the node
  /// count. Declared last so it is built after the mesh it partitions and
  /// destroyed (joining any workers) before the components it ticks.
  ParallelTickEngine engine_;
};

}  // namespace hybridnoc
