// Hybrid network interface: everything the paper puts at the source node.
//
//  * Frequently-communicating-pair detection (Section II-A): per-destination
//    packet counts over a policy epoch trigger circuit setup.
//  * The path configuration protocol's endpoint state machines
//    (Section II-B): pending setups, success/failure acks, retry with a
//    different slot id, teardown of failed or idle paths. Data is never
//    blocked on setup — packets go packet-switched while setup runs.
//  * Slot-timed circuit injection: flits are written so they hit the source
//    router's crossbar exactly in their reserved slots; the injection
//    channel's remaining cycles carry packet-switched traffic.
//  * The switching decision (Sections II-A / V-A2): slack-based for messages
//    carrying GPU slack, latency-estimate-based otherwise; messages whose
//    slot wait would hurt them stay packet-switched.
//  * Path sharing (Section III-A): hitchhiker (via the DLT) and vicinity
//    (via connections/DLT entries adjacent to the destination), with 2-bit
//    saturating failure counters, packet-switched fallback on contention and
//    dedicated-path escalation on saturation.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "common/pool.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "noc/network_interface.hpp"
#include "tdm/controller.hpp"
#include "tdm/dlt.hpp"
#include "tdm/hybrid_router.hpp"

namespace hybridnoc {

/// Fault-injection verdict for one outgoing config message (setup, teardown
/// or ack). Returned by a hook installed on the NI; used by the harness to
/// exercise the protocol's loss/duplication recovery paths.
struct ConfigFaultDecision {
  enum class Action : std::uint8_t { None, Drop, Delay, Duplicate };
  Action action = Action::None;
  Cycle delay = 0;  ///< injection delay in cycles (Delay only)
};
using ConfigFaultHook =
    std::function<ConfigFaultDecision(const PacketPtr&, Cycle)>;

class HybridNi : public NetworkInterface, public CircuitNiHooks {
 public:
  HybridNi(const NocConfig& cfg, NodeId id, const Mesh& mesh,
           TdmController* ctrl);

  /// Wire the co-located hybrid router (also installs the NI hooks on it).
  void attach_router(HybridRouter* r);

  void send(PacketPtr pkt, Cycle now) override;
  bool idle() const override;
  void set_policy_frozen(bool frozen) override { frozen_ = frozen; }

  /// Checkpoint: base NI state plus connection table, pending/deferred
  /// protocol state, frequency counters, DLT and the setup RNG. Requires
  /// idle() (no planned circuit flits, no held-back config messages).
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// Active-set scheduling: wakes for scheduled circuit injections, delayed
  /// config releases, and policy-epoch boundaries that are not no-ops.
  Cycle sched_next_event(Cycle now) const override;

  /// Install (or clear, with nullptr) the config-message fault injector.
  /// Every outgoing setup/teardown/ack is offered to the hook just before
  /// injection; the returned decision may drop it, delay it, or inject a
  /// duplicate copy alongside it.
  void set_config_fault_hook(ConfigFaultHook hook) {
    fault_hook_ = std::move(hook);
  }

  /// Drop all circuit state (slot-table reset, Section II-C). Only called
  /// when no circuit flit is planned or in flight.
  void reset_circuit_state();

  bool cs_plan_empty() const { return cs_plan_.empty(); }
  /// Any reservation windows held at this source? Cheap pre-check the
  /// network-wide audit uses to skip its walk on circuit-free networks.
  bool has_connections() const { return !connections_.empty(); }

  // CircuitNiHooks
  void on_setup_pass(NodeId dest, int slot, int duration, Port in, Port out,
                     Cycle now) override;
  void on_teardown_pass(int slot, Port in, Cycle now) override;
  void on_circuit_use(int slot, Port in, Cycle now) override;
  void on_hitchhike_bounce(Packet* pkt, Cycle now) override;

  /// Planned circuit flits hold flight references too; add them to the
  /// network teardown drain.
  void collect_in_flight(std::vector<Packet*>& out) const override;

  // --- introspection (tests, benches) ---
  int active_connections() const { return static_cast<int>(connections_.size()); }
  bool has_connection(NodeId dst) const { return connections_.count(dst) > 0; }
  const DestinationLookupTable& dlt() const { return dlt_; }
  /// Crossbar slots (and owning setup ids) of every reservation window this
  /// NI holds toward `dst` — consumed by the network-wide consistency audit.
  std::vector<std::pair<int, PacketId>> connection_windows(NodeId dst) const;
  std::vector<NodeId> connection_dsts() const;
  int connection_duration(NodeId dst) const;

 protected:
  bool circuit_inject(Cycle now) override;
  void handle_config(const PacketPtr& pkt, Cycle now) override;
  void handle_delivery(const PacketPtr& pkt, Cycle now) override;
  void on_eject_flit(const Flit& flit, Cycle now) override;
  void on_e2e_retx(const PacketPtr& clone, Cycle now) override;
  void on_e2e_acked(NodeId dst, Cycle now) override;
  void on_packet_squashed(const PacketPtr& pkt, Cycle now) override;
  void leakage_tick(Cycle now) override;
  void accumulate_idle_energy(EnergyCounters& e, std::uint64_t ncycles) const override;
  void align_epochs(Cycle now) override;
  void finalize_energy(EnergyCounters& e) const override;

 private:
  struct Connection {
    /// Crossbar slots (at this source router) of every reservation window
    /// this pair holds. Multiple windows = finer time-division granularity
    /// = more of the path's bandwidth (Section II-C).
    std::vector<int> slots;
    /// Id of the setup that reserved each window (same index as `slots`).
    /// Stamped into teardowns so they release only their own slot-table
    /// entries, and used to recognise duplicated success acks.
    std::vector<PacketId> setup_ids;
    int duration = 0;
    Cycle last_used = 0;
    std::uint8_t vicinity_fail = 0;  ///< 2-bit saturating counter
    /// Consecutive end-to-end retransmissions toward this destination (the
    /// missed-slot streak); cleared by any ack from there.
    int fail_streak = 0;
    /// Liveness verdict reached: no new circuit traffic is scheduled while
    /// the deferred teardown waits for already-planned flits to launch.
    bool doomed = false;
    int window_count() const { return static_cast<int>(slots.size()); }
  };
  using ConnectionMap = PooledMap<NodeId, Connection>;
  struct PendingSetup {
    NodeId dst = kInvalidNode;
    int slot = 0;
    int retries = 0;
    Cycle sent_at = 0;
  };
  struct DeferredSetup {
    NodeId dst = kInvalidNode;
    int retries = 0;
    int avoid_slot = -1;
  };

  enum class CsAttempt { Scheduled, NoWindow, NotWorth };

  /// Try to transmit `pkt` circuit-switched (own path, hitchhike, vicinity,
  /// or combined). Returns true if scheduled.
  bool try_circuit(const PacketPtr& pkt, Cycle now);
  /// Schedule a packet onto a circuit with reservation windows at `slots`
  /// (crossbar slots at this router); the earliest feasible window wins.
  /// `cs_hops` is the circuit's length in hops, `extra_latency` accounts for
  /// a vicinity hop-off. share_in/share_out < 0 for own paths.
  CsAttempt schedule_cs(const PacketPtr& pkt, const std::vector<int>& slots,
                        int cs_hops, Cycle extra_latency, int share_in,
                        int share_out, Cycle now);
  /// Earliest crossbar cycle >= now+2 congruent to `slot` with a free
  /// injection window for `nflits` consecutive cycles.
  std::optional<Cycle> find_start(int slot, int nflits, Cycle now) const;

  struct SetupHost;
  /// The shared setup policy (maybe_setup in tdm/switching_policy.hpp),
  /// gated on the policy being live. `force` bypasses the frequency
  /// threshold (a sharing failure counter saturated and a dedicated path
  /// must be requested); `supplement` requests an additional reservation
  /// window for an existing connection whose windows are oversubscribed
  /// (Section II-C granularity).
  void maybe_initiate_setup(NodeId dst, Cycle now, bool force,
                            bool supplement = false);
  /// `avoid_slot` >= 0 forces the slot draw away from that slot — a retry
  /// after a conflict must probe a *different* slot id (Section II-B).
  void send_setup(NodeId dst, int retries, Cycle now, int avoid_slot = -1);
  /// `owner` = id of the setup whose reservations the teardown may release
  /// (0 releases unconditionally). `stop_at` = the router the corresponding
  /// setup failed at (failure teardowns), kInvalidNode for full-path
  /// teardowns.
  void send_teardown(NodeId dst, int slot, PacketId owner, Cycle now,
                     NodeId stop_at = kInvalidNode);
  PacketPtr make_config(MsgType type, NodeId dst, Cycle now) const;
  /// Inject a config message, applying the fault hook (drop/delay/duplicate)
  /// if one is installed. The single exit point for all config traffic.
  void dispatch_config(PacketPtr p, Cycle now);
  /// Is `setup_id` the owner of an installed window toward `dst`?
  bool window_installed(NodeId dst, PacketId setup_id) const;
  /// Abandon pending setups whose ack is overdue; reclaims whatever prefix
  /// the lost setup reserved and unblocks the destination for new setups.
  void expire_pending(Cycle now);

  /// Cancel remaining planned flits and re-send the packet packet-switched.
  /// `ride_dest` is the shared path's destination (for the DLT counter).
  /// The caller must still hold the packet's head-flit flight count (it is
  /// consumed after this returns), so `pkt` stays valid throughout.
  void bounce_packet(Packet* pkt, NodeId ride_dest, Cycle now);
  /// Send a packet-switched copy of `pkt` (same identity, full PS length,
  /// circuit-ineligible) toward its final destination, ahead of queued
  /// traffic: a bounced hitchhiker or a vicinity hop-off.
  void reinject_packet_switched(const Packet& pkt, Cycle now);

  /// Tear down the doomed connection to `dst` (all windows) and force a
  /// fresh setup over a fault-aware route. Re-defers itself while circuit
  /// flits toward `dst` are still planned.
  void execute_fault_teardown(NodeId dst, Cycle now);

  void epoch_tick(Cycle now);
  /// Tear down every window of a connection and forget it.
  void retire_connection(ConnectionMap::iterator it, Cycle now);

  /// Keep the controller's NIs-with-planned-circuits gauge in sync after a
  /// cs_plan_ mutation: call with the pre-mutation emptiness. The gauge is
  /// what makes the reset-pending quiescence poll O(1).
  void note_cs_plan_change(bool was_empty) {
    const bool is_empty = cs_plan_.empty();
    if (was_empty != is_empty) {
      ctrl_->note_cs_plan_transition(is_empty ? -1 : 1);
    }
  }

  /// Ordered maps on purpose: both are iterated on behaviour-relevant paths
  /// (vicinity scan, idlest-connection search, epoch teardowns, pending
  /// expiry), and checkpoint/restore must reproduce the exact visit order —
  /// sorted iteration makes the order a function of the keys alone, not of
  /// hash-table insertion history. Pool-backed so the node churn (freq_
  /// resets every epoch, pending entries per setup) recycles fixed blocks
  /// instead of hitting the heap.
  ConnectionMap connections_;
  PooledMap<std::uint64_t, PendingSetup> pending_;
  PooledSet<NodeId> pending_dsts_;
  PooledUMap<NodeId, int> freq_;
  PooledUMap<NodeId, Cycle> cooldown_until_;
  /// Injection-channel write schedule. Cycle-sorted flat storage: the hot
  /// path is one front()-vs-now compare per NI tick (was a std::map lookup).
  CycleMap<Flit> cs_plan_;
  /// Config messages held back by a Delay fault verdict: release cycle -> pkt.
  CycleMap<PacketPtr> delayed_config_;
  /// Liveness teardowns waiting for planned circuit flits to clear:
  /// fire cycle -> doomed connection's destination.
  CycleMap<NodeId> fault_teardowns_;
  /// Backed-off setup retries (cfg.setup_backoff_base_cycles > 0):
  /// fire cycle -> retry parameters. The destination stays in pending_dsts_
  /// while deferred so no competing setup starts.
  CycleMap<DeferredSetup> deferred_setups_;
  ConfigFaultHook fault_hook_;
  DestinationLookupTable dlt_;
  /// epoch_tick scratch (kept across calls so steady-state epochs do not
  /// touch the heap).
  std::vector<NodeId> idle_scratch_;

  HybridRouter* hrouter_ = nullptr;
  TdmController* ctrl_;
  Rng rng_;
  bool frozen_ = false;
  Cycle epoch_start_ = 0;
};

}  // namespace hybridnoc
