// Network interface (NI): packetization, injection VC management, ejection
// re-assembly and delivery. One NI per tile, attached to its router's Local
// port. The NI is the upstream VC allocator for the router's local input
// port and the downstream credit source for the router's ejection port.
//
// The hybrid NI in src/tdm extends this class with the circuit-switched
// machinery: connection table, setup/teardown protocol, slot-timed CS
// injection, the switching decision, and path sharing.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "common/geometry.hpp"
#include "common/pool.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/channel.hpp"
#include "noc/counters.hpp"
#include "noc/router.hpp"
#include "power/energy_model.hpp"

namespace hybridnoc {

class StateWriter;
class StateReader;

/// Called when a data packet fully arrives at its (final) destination NI.
using DeliverFn = std::function<void(const PacketPtr&, Cycle)>;

class NetworkInterface : public VcHolder {
 public:
  NetworkInterface(const NocConfig& cfg, NodeId id, const Mesh& mesh);
  ~NetworkInterface() override = default;

  NetworkInterface(const NetworkInterface&) = delete;
  NetworkInterface& operator=(const NetworkInterface&) = delete;

  void connect(FlitChannel* inject, CreditChannel* inject_credits_in,
               FlitChannel* eject, CreditChannel* eject_credits_out,
               Router* router);

  /// Hardware fault model (owned by the Network; nullptr = perfect fabric).
  /// Enables the injection-side reachability check and unreachable give-ups.
  void set_fault_model(const FaultModel* fm) { faults_ = fm; }

  /// Queue a packet for transmission. The NI owns switching-mode selection;
  /// the caller only sets src/dst/type/class (and num_flits for data).
  virtual void send(PacketPtr pkt, Cycle now);

  virtual void tick(Cycle now);

  void set_deliver_handler(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Parallel tick engine: the deliver handler is the one external callback
  /// a compute-phase tick would invoke, and handlers are shared across NIs
  /// (stats maps, latency histograms). Staging defers the call — counters
  /// still update in place — and the engine drains all NIs in ascending id
  /// order after the cycle barrier, on one thread. Handlers that inject
  /// traffic synchronously are not supported in staged mode; all in-tree
  /// handlers are passive observers.
  void set_stage_deliveries(bool on) { stage_deliveries_ = on; }
  void flush_staged_deliveries() {
    for (auto& [pkt, cycle] : staged_deliveries_) deliver_(pkt, cycle);
    staged_deliveries_.clear();
  }

  NodeId id() const { return id_; }
  int inject_queue_depth() const { return static_cast<int>(queue_.size()); }

  /// No queued, in-flight or partially assembled traffic at this NI.
  virtual bool idle() const;

  /// Checkpoint this NI's state. Requires idle() — containers holding live
  /// packets (queue, assembly, e2e outstanding) must be empty; everything
  /// else (counters, RNG, arbiter pointers, the e2e dedup set) serializes.
  virtual void save_state(StateWriter& w) const;
  /// Restore into a freshly constructed NI of the same configuration.
  /// Throws StateError on malformed archives; never aborts.
  virtual void restore_state(StateReader& r);

  /// Freeze proactive protocol activity (circuit setup initiation) so a
  /// simulation can drain; data in flight still completes. Base NI: no-op.
  virtual void set_policy_frozen(bool frozen) { (void)frozen; }

  // VcHolder: allocation state of the router's local input VCs.
  bool holds_vc_allocation(Port out_port, int vc) const override;

  /// Append every packet this NI still pins through a flight anchor
  /// (partial assemblies; the hybrid NI adds its CS injection plan) to
  /// `out`. Teardown support — see Router::collect_in_flight.
  virtual void collect_in_flight(std::vector<Packet*>& out) const;

  const int* eject_active_vcs_ptr() const { return &eject_active_vcs_; }

  // --- active-set scheduling (see noc/scheduler.hpp for the contract) ---
  /// The scheduler the NI wakes itself through when work is handed to it
  /// from outside the tick loop (send / send_priority).
  void set_scheduler(TickScheduler* sched, int self_id) {
    sched_ = sched;
    sched_id_ = self_id;
  }
  /// Must this NI be ticked next cycle regardless of channel activity?
  virtual bool sched_busy() const;
  /// Next cycle > now with observable work no Channel::send wake covers.
  virtual Cycle sched_next_event(Cycle now) const;
  /// energy() plus lazily folded idle-cycle constants as of cycle `now`.
  EnergyCounters settled_energy(Cycle now) const;
  /// Fold idle-cycle constants through cycle `through` inclusive (call
  /// before a per-cycle energy rate changes under a sleeping NI).
  void settle_energy(Cycle through);

  /// Starvation watchdog sweep: flag (once) every non-config packet that has
  /// been queued or unacknowledged for `max_age`+ cycles. Returns the number
  /// newly flagged; the running total is counters()[NiCounter::WatchdogFlagged].
  int watchdog_scan(Cycle now, Cycle max_age);

  // --- statistics ---
  /// This NI's event counters (noc/counters.hpp).
  const NiCounters& counters() const { return counts_; }
  /// Packets sent but not yet end-to-end acknowledged.
  std::size_t e2e_outstanding() const { return outstanding_.size(); }
  /// Data flits injected on behalf of one producer class (PS + CS).
  std::uint64_t flits_of_class(TrafficClass c) const {
    return flits_by_class_[static_cast<size_t>(c)];
  }
  const EnergyCounters& energy() const { return energy_; }

 protected:
  /// Injection-side state of one local-input VC at the router.
  struct OutVc {
    bool busy = false;
    bool tail_sent = false;
    int credits = 0;
    PacketPtr pkt;
    int next_seq = 0;
  };

  // --- hooks for the hybrid NI ---
  /// Every flit popped off the ejection channel passes through here before
  /// assembly (the hybrid NI tracks in-flight circuit-switched flits).
  virtual void on_eject_flit(const Flit& flit, Cycle now) {
    (void)flit;
    (void)now;
  }
  /// Claim this cycle's injection-channel write before packet-switched
  /// traffic gets it (CS flits are slot-timed and take priority). Returns
  /// true if the cycle was used.
  virtual bool circuit_inject(Cycle now) { (void)now; return false; }
  /// A config packet (setup/ack) was delivered to this NI.
  virtual void handle_config(const PacketPtr& pkt, Cycle now);
  /// A data packet fully reassembled here. Default delivers; the hybrid NI
  /// intercepts vicinity-shared packets for their hop-off re-injection.
  virtual void handle_delivery(const PacketPtr& pkt, Cycle now);
  virtual void leakage_tick(Cycle now) { (void)now; }
  /// Per-idle-cycle energy constants for `ncycles` slept cycles. The base
  /// NI accrues none (its counters are all event counts); the hybrid NI
  /// adds its DLT leakage integral.
  virtual void accumulate_idle_energy(EnergyCounters& e, std::uint64_t ncycles) const {
    (void)e;
    (void)ncycles;
  }
  /// Re-anchor epoch state after a sleep (hybrid NI: the policy epoch).
  virtual void align_epochs(Cycle now) { (void)now; }
  /// Patch derived counters at query time (hybrid NI: dlt_accesses, which
  /// the full sweep refreshes from the DLT every cycle).
  virtual void finalize_energy(EnergyCounters& e) const { (void)e; }
  /// The end-to-end layer retransmitted a packet toward `dst` (hybrid NI:
  /// bump the circuit's missed-slot streak) / saw an ack from `dst` come
  /// back (hybrid NI: clear the streak).
  virtual void on_e2e_retx(const PacketPtr& clone, Cycle now) {
    (void)clone;
    (void)now;
  }
  virtual void on_e2e_acked(NodeId dst, Cycle now) {
    (void)dst;
    (void)now;
  }
  /// A fully assembled packet was squashed because a flit arrived CRC-dirty
  /// (the hybrid NI retires squashed config messages with the controller).
  virtual void on_packet_squashed(const PacketPtr& pkt, Cycle now) {
    (void)pkt;
    (void)now;
  }
  /// Wake this NI at `at` (no-op before a scheduler is attached).
  void sched_wake(Cycle at) {
    if (sched_) sched_->wake_at(sched_id_, at);
  }

  /// Injection-side admission for the fault layer: fails the packet cleanly
  /// (returns false) when its destination is partitioned off, otherwise
  /// registers it with the end-to-end recovery table. Idempotent, so the
  /// hybrid NI can admit before its circuit try and the packet-switched
  /// fallback can admit again harmlessly.
  bool e2e_admit(const PacketPtr& pkt, Cycle now);
  /// A copy of a tracked packet just entered the fabric (packet-switched
  /// head flit launched, or a circuit transmission was slotted): arm its
  /// retransmission timer. Queue residency does not count as transmission.
  void e2e_launched(const PacketPtr& pkt, Cycle now);

  void deliver(const PacketPtr& pkt, Cycle now);
  /// Enqueue at the front (used for hop-off / bounced packets).
  void send_priority(PacketPtr pkt, Cycle now);
  /// Fresh packet id from this NI's private id space (bit 44 and up encode
  /// the node, so NI-generated ids never collide with workload-chosen ids).
  PacketId fresh_packet_id() {
    return (static_cast<PacketId>(id_) + 1) << 44 | local_ids_++;
  }
  /// EWMA of (injection cycle - creation cycle) over recent packet-switched
  /// head flits: a cheap, locally observable congestion signal the switching
  /// decision uses to estimate packet-switched latency inflation.
  double ewma_inject_delay() const { return ewma_inject_delay_; }

  const NocConfig cfg_;
  const NodeId id_;
  const Mesh& mesh_;
  Router* router_ = nullptr;
  const FaultModel* faults_ = nullptr;

  FlitChannel* inject_ = nullptr;
  CreditChannel* inject_credits_in_ = nullptr;
  FlitChannel* eject_ = nullptr;
  CreditChannel* eject_credits_out_ = nullptr;
  /// Occupancy of the two inbound channels, kept by the channels (see
  /// Channel::set_pending_mask): a tick polls only the ones that hold items.
  static constexpr std::uint32_t kCreditPending = 1u << 0;
  static constexpr std::uint32_t kEjectPending = 1u << 1;
  std::uint32_t pending_ = 0;

  RingDeque<PacketPtr> queue_;
  std::vector<OutVc> out_vcs_;
  int inject_rr_ = 0;
  /// See Router::accounted_until_: cycles with energy constants folded in.
  Cycle accounted_until_ = 0;
  TickScheduler* sched_ = nullptr;
  int sched_id_ = -1;

  EnergyCounters energy_;
  std::array<std::uint64_t, 4> flits_by_class_{};
  NiCounters counts_;

 private:
  void receive_credits(Cycle now);
  void eject_tick(Cycle now);
  void inject_tick(Cycle now);
  bool try_start_packet(Cycle now);

  // --- end-to-end recovery (cfg.e2e_recovery) ---
  /// One unacknowledged transmission at its origin NI.
  struct Outstanding {
    PacketPtr pkt;       ///< the original packet (retransmits clone it)
    Cycle next_retx = 0;
    Cycle backoff = 0;   ///< current wait; doubles per attempt up to the cap
    int attempts = 0;    ///< retransmissions already sent
  };
  void e2e_track(const PacketPtr& pkt);
  void e2e_tick(Cycle now);
  void e2e_acked(PacketId key, Cycle now);
  void send_e2e_ack(const PacketPtr& pkt, PacketId key, Cycle now);

  /// One partially reassembled packet. The raw pointer stays valid because
  /// the packet's flight anchor is released only when its last flit ejects —
  /// the same event that completes the assembly.
  struct Assembly {
    int got = 0;
    Packet* pkt = nullptr;
  };
  PooledUMap<PacketId, Assembly> assembly_;
  DeliverFn deliver_;
  bool stage_deliveries_ = false;
  std::vector<std::pair<PacketPtr, Cycle>> staged_deliveries_;
  int eject_active_vcs_;
  PacketId local_ids_ = 0;
  double ewma_inject_delay_ = 0.0;

  /// Keyed by original packet id (the end-to-end sequence number).
  PooledUMap<PacketId, Outstanding> outstanding_;
  /// Packet ids that arrived with at least one CRC-flagged flit; the whole
  /// packet is squashed at assembly.
  PooledUSet<PacketId> poisoned_;
  /// Destination-side dedup: end-to-end keys already delivered here.
  PooledUSet<PacketId> e2e_seen_;
  /// Keys with an ack built but not yet launched (ack coalescing): a burst
  /// of duplicate copies yields one queued ack, not one per copy.
  PooledUSet<PacketId> acks_pending_;
  /// Scratch for e2e_tick's deterministic due-entry sweep (member so the
  /// steady-state loop reuses its capacity instead of reallocating).
  std::vector<PacketId> e2e_due_;
  Rng e2e_rng_;  ///< retransmission jitter (only drawn when e2e is on)
};

}  // namespace hybridnoc
