// Canonical virtual-channel wormhole router (the Packet-VC4 baseline), with
// the extension points the TDM hybrid router of Section II-D plugs into.
//
// Pipeline (4 stages + link), matching the paper's packet-switched path:
//   cycle T    BW+RC   flit readable on the input channel; buffered, head
//                      flits routed
//   cycle T+1  VA      head flit competes for a downstream virtual channel
//   cycle T+2  SA      flit competes for the crossbar (grant is for T+3)
//   cycle T+3  ST      crossbar traversal, flit written to the output link
//   T+5                readable at the next router (1 cycle in flight)
//
// Switch allocation in cycle C grants crossbar passage in cycle C+1, so the
// router knows one cycle ahead which (input, output) pairs the crossbar will
// use — exactly the look-ahead the hybrid router needs to honour slot-table
// reservations and to perform time-slot stealing.
//
// A tick touches only state that has work. The inbound channels keep a
// per-router occupancy word (pending_), so BW/RC and the credit return poll
// only channels that hold something. SA builds one request mask of input
// ports per output and grants the first requester at or after the output's
// round-robin pointer. The winners wait in one of two banks of per-output
// ST registers: SA in cycle C fills the bank that ST drains in C+1, and the
// banks swap after each traversal.
//
// Flow control is credit-based with conservative atomic VC reallocation: an
// output VC is granted to a new packet only when it is unallocated and all
// its credits are home.
//
// Aggressive VC power gating (Section III-B) lives here because the paper
// applies it to both packet- and hybrid-switched routers: an epoch-based
// controller compares VC utilisation against Threshold_High/Threshold_Low,
// activates or drains one VC set at a time, and never gates a VC that still
// holds flits or is allocated by an upstream router.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/ring.hpp"
#include "common/geometry.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/channel.hpp"
#include "noc/counters.hpp"
#include "noc/routing.hpp"
#include "power/energy_model.hpp"

namespace hybridnoc {

class FaultModel;
class StateWriter;
class StateReader;

/// Anything that can hold an allocation of a downstream input VC — an
/// upstream Router or a NetworkInterface. The VC-gating controller polls the
/// upstream holder before powering a VC off ("the VC must be evacuated
/// before adjusting").
class VcHolder {
 public:
  virtual ~VcHolder() = default;
  /// True if this holder currently has `vc` allocated on the output that
  /// feeds the asking router's input port.
  virtual bool holds_vc_allocation(Port out_port, int vc) const = 0;
};

class Router : public VcHolder {
 public:
  Router(const NocConfig& cfg, NodeId id, const Mesh& mesh);
  ~Router() override = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // --- wiring (done once by the Network) ---
  void connect_input(Port p, FlitChannel* data_in, CreditChannel* credit_out,
                     VcHolder* upstream, Port upstream_out);
  void connect_output(Port p, FlitChannel* data_out, CreditChannel* credit_in);
  /// Downstream router (or NI) whose announced active-VC count bounds VA.
  void set_downstream_active_vcs(Port p, const int* active_vcs);
  /// Hardware fault model (owned by the Network; nullptr = perfect fabric).
  /// Every link traversal consults it, and data routing detours around links
  /// it reports permanently failed.
  void set_fault_model(FaultModel* fm) { faults_ = fm; }

  /// One simulated cycle. The Network calls every router once per cycle in a
  /// fixed order; all inter-router traffic crosses latency>=1 channels, so
  /// the order is not observable.
  void tick(Cycle now);

  NodeId id() const { return id_; }
  const NocConfig& cfg() const { return cfg_; }

  /// VC count this router currently lets upstream allocators use.
  int announced_active_vcs() const { return announced_active_vcs_; }
  const int* announced_active_vcs_ptr() const { return &announced_active_vcs_; }

  // VcHolder: does this router hold downstream VC `vc` on output `out`?
  bool holds_vc_allocation(Port out_port, int vc) const override;

  const EnergyCounters& energy() const { return energy_; }
  /// This router's event counters (noc/counters.hpp).
  const RouterCounters& counters() const { return counts_; }

  /// No buffered flits and no pending crossbar grants.
  bool idle() const;

  /// Checkpoint this router's state. Requires idle() — every VC must be
  /// empty; arbiter pointers, credits, gating state and counters serialize.
  virtual void save_state(StateWriter& w) const;
  /// Restore into a freshly constructed router of the same configuration.
  virtual void restore_state(StateReader& r);

  /// Total free credits on `out` across VCs usable by upstream — the
  /// congestion metric for adaptive route selection.
  int free_credits(Port out) const;

  /// Append the packet of every flit still buffered in this router (VC
  /// FIFOs, ST registers; subclasses add their latches) to `out`. Teardown
  /// support: the Network's destructor releases the flight anchors of
  /// traffic abandoned mid-run so nothing leaks.
  virtual void collect_in_flight(std::vector<Packet*>& out) const;

  // --- active-set scheduling (see noc/scheduler.hpp for the contract) ---
  /// Must this router be ticked next cycle regardless of channel activity?
  virtual bool sched_busy() const;
  /// Next cycle > now at which this (currently idle) router can have
  /// observable work that no Channel::send wake would cover.
  virtual Cycle sched_next_event(Cycle now) const;
  /// energy() plus the per-cycle constants for cycles slept through but not
  /// yet folded in, as of network cycle `now` (i.e. cycles [0, now)).
  EnergyCounters settled_energy(Cycle now) const;
  /// Fold idle-cycle constants through cycle `through` inclusive into the
  /// live counters. Must be called before any per-cycle energy *rate*
  /// changes underneath a sleeping component (e.g. a slot-table resize).
  void settle_energy(Cycle through);

 protected:
  struct BufferedFlit {
    Flit flit;
    Cycle bw_cycle = 0;
  };

  /// One virtual channel of one input port.
  struct VcState {
    enum class S { Idle, WaitVc, Active };
    S state = S::Idle;
    RingDeque<BufferedFlit> fifo;
    Port out_port = Port::Local;
    int out_vc = -1;
    Cycle va_eligible = 0;
    Cycle sa_eligible = 0;
    Packet* pkt = nullptr;  ///< packet currently owning this VC (flight-anchored)
  };

  struct InputPort {
    FlitChannel* data = nullptr;        ///< occupancy: pending_ bit p
    CreditChannel* credit_out = nullptr;  ///< credits back to the upstream holder
    VcHolder* upstream = nullptr;
    Port upstream_out = Port::Local;
    std::vector<VcState> vcs;
    int sa_rr = 0;  ///< round-robin pointer over VCs (input arbiter)
    /// Bitmask caches of the per-VC states (bit v set <=> vcs[v].state is
    /// WaitVc / Active). The allocation stages and the gating census scan
    /// set bits instead of walking every VcState each cycle, which is the
    /// dominant per-tick cost once flit movement itself is allocation-free.
    std::uint32_t wait_mask = 0;
    std::uint32_t active_mask = 0;
  };

  struct OutputPort {
    FlitChannel* data = nullptr;
    CreditChannel* credit_in = nullptr;  ///< occupancy: pending_ bit 8 + p
    const int* downstream_active_vcs = nullptr;
    std::vector<int> credits;
    /// Bit v set <=> downstream VC v is allocated to an in-flight packet.
    std::uint32_t vc_busy = 0;
    /// Bit v set <=> VC v's tail is gone and it waits for credits to refill.
    std::uint32_t tail_sent = 0;
    /// Round-robin pointer over input ports: SA grants the first requesting
    /// input at or after it, wrapping round.
    int sa_rr = 0;
    int va_rr = 0;   ///< round-robin pointer over downstream VCs
    /// Incrementally maintained sum of credits[0..cached_active), the
    /// adaptive-routing congestion metric. cached_active == -1 until the
    /// first free_credits() call (and after the downstream active-VC count
    /// changes), which recomputes the prefix from scratch.
    mutable int cached_free_credits = 0;
    mutable int cached_active = -1;
    /// Bit v set <=> downstream VC v is grantable under conservative atomic
    /// reallocation (!vc_busy && !tail_sent && credits == depth). Updated at
    /// the grant and the credit-refill reallocation point, so a waiting VC's
    /// failed VA attempt — the steady state under saturation — is one AND
    /// instead of a scan over every downstream VC.
    std::uint32_t grantable_mask = 0;
  };

  /// A switch-allocation winner waiting for its crossbar cycle; one
  /// register per crossbar output, indexed by the output port.
  struct StReg {
    Flit flit;
    Cycle st_cycle = 0;
  };
  using StRegBank = std::array<StReg, kNumPorts>;

  /// pending_ layout, maintained by the inbound channels themselves (see
  /// Channel::set_pending_mask): bit p while data input p holds a flit,
  /// bit 8 + p while the credit input of output p holds a credit, bit
  /// 16 + p while data input p holds a circuit-switched flit.
  static constexpr unsigned kCreditPendingShift = 8;
  static constexpr unsigned kCircuitPendingShift = 16;
  static constexpr std::uint32_t kPortBits = (1u << kNumPorts) - 1u;

  /// May data input `p` hold a circuit-switched flit? When false no
  /// circuit flit is queued there, so the advance signal is certainly low.
  bool may_hold_circuit(Port p) const {
    return (pending_ >> (kCircuitPendingShift + static_cast<unsigned>(p))) & 1u;
  }

  // --- extension points for the hybrid router ---
  /// First chance at an arriving flit. Return true if consumed (the hybrid
  /// router diverts circuit-switched flits to the CS latch here). The base
  /// router never sees circuit-switched flits.
  virtual bool handle_arrival(Flit& flit, Port in, Cycle now);
  /// May the crossbar pass a packet-switched flit (in -> out) at st_cycle?
  /// The hybrid router consults the slot table (and the advance signal, for
  /// time-slot stealing). Base: always.
  virtual bool st_ok(Port in, Port out, Cycle st_cycle);
  /// Route a head flit; may mutate the packet (the hybrid router processes
  /// setup/teardown here). nullopt = consume the flit without forwarding
  /// (single-flit config packets only).
  virtual std::optional<Port> compute_route(Packet* pkt, Port in, Cycle now);
  /// A CRC-flagged config message was evaporated at this router's input:
  /// acting on damaged protocol fields (slot ids, owner tags) would corrupt
  /// reservation state, and the protocol's timeout/lease machinery already
  /// recovers from the loss. The hybrid router retires it with the
  /// controller's config-in-flight ledger.
  virtual void on_config_corrupt(Packet* pkt) { (void)pkt; }
  /// Called during the traversal phase so the hybrid router can push the
  /// circuit-switched flits it collected this cycle through the crossbar.
  virtual void traverse_circuit(Cycle now) { (void)now; }
  /// Extra per-cycle leakage integrals (slot tables, DLT, CS latches).
  virtual void leakage_tick(Cycle now) { (void)now; }
  /// Add `ncycles` worth of the per-idle-cycle energy constants (what
  /// accounting_tick + leakage_tick would have accrued had this router been
  /// ticked while idle) to `e` in closed form. Subclasses extend it with
  /// their own leakage integrals.
  virtual void accumulate_idle_energy(EnergyCounters& e, std::uint64_t ncycles) const;
  /// Re-anchor epoch state after a sleep so the boundary check in this tick
  /// sees the same phase the full sweep would. Skipped boundaries were
  /// no-ops by construction: sched_next_event keeps the router awake at
  /// every boundary where gating state could change.
  virtual void align_epochs(Cycle now);

  // --- services shared with subclasses ---
  void send_flit(Port out, Flit flit, Cycle now);  ///< crossbar + link + channel
  /// Mark a crossbar output as used this cycle; aborts on double use. The
  /// hybrid router claims outputs for circuit-switched traversals with this
  /// so CS/PS conflicts are caught.
  void claim_xbar_output(Port out);
  Port route_data(NodeId dst) const { return route_xy(mesh_, id_, dst); }
  Port route_adaptive(NodeId dst, Cycle now);
  int powered_vcs() const;  ///< active + draining (for leakage)
  int num_ports_in_use() const { return static_cast<int>(ports_present_); }

  const NocConfig cfg_;
  const NodeId id_;
  const Mesh& mesh_;
  FaultModel* faults_ = nullptr;
  std::array<InputPort, kNumPorts> in_;
  std::array<OutputPort, kNumPorts> out_;
  EnergyCounters energy_;
  RouterCounters counts_;
  /// Number of cycles whose per-cycle energy constants are already in
  /// energy_ (== the cycle after the last accounted one). Cycles in
  /// [accounted_until_, now) were slept through and are folded lazily.
  Cycle accounted_until_ = 0;
  /// Inbound-channel occupancy bits (layout at kCreditPendingShift).
  std::uint32_t pending_ = 0;

 private:
  void receive_credits(Cycle now);
  void receive_flits(Cycle now);
  void vc_allocate(Cycle now);
  void switch_allocate(Cycle now);
  void switch_traverse(Cycle now);
  void vc_gating_tick(Cycle now);
  void accounting_tick(Cycle now);

  /// Index of the VC (if any) from input `p` picked by the input arbiter.
  int pick_sa_candidate(InputPort& ip, Port p, Cycle now);

  /// Two banks of ST registers: switch_allocate fills bank st_cur_ ^ 1 for
  /// the next cycle while switch_traverse drains bank st_cur_, then the
  /// banks swap. st_valid_ holds one bit per occupied output register.
  std::array<StRegBank, 2> st_regs_{};
  std::array<std::uint32_t, 2> st_valid_{};
  int st_cur_ = 0;
  std::uint32_t xbar_out_used_ = 0;  ///< bit per crossbar output used this cycle

  // --- VC power gating state ---
  int announced_active_vcs_;  ///< what upstream allocators may use
  int draining_vc_ = -1;      ///< VC being evacuated, or -1
  std::uint64_t busy_vc_integral_ = 0;
  /// Buffered-flit residency accounting for the latency gating metric.
  std::uint64_t residency_sum_ = 0;
  std::uint64_t residency_count_ = 0;
  Cycle epoch_start_ = 0;

  size_t ports_present_ = 0;
};

}  // namespace hybridnoc
