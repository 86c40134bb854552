// The TDM hybrid-switched router (Section II-D, Figure 2): a canonical VC
// wormhole router extended with a slot table, circuit-switched latches and
// input demultiplexers.
//
// Per cycle T, an arriving flit is steered by the slot-table entry for T:
// circuit-switched flits cross the (pre-configured) crossbar in the same
// cycle — one cycle of router latency, no buffering — while packet-switched
// flits enter the normal pipeline. Reserved slots with no arriving circuit
// flit are released to packet-switched traffic ("time-slot stealing",
// Section II-D), using the one-bit advance signal the upstream router
// propagates a cycle ahead (modelled by peeking the input channel's arrival
// schedule — exactly the information that wire carries).
//
// The router also executes the path configuration protocol (Section II-B):
// setup messages reserve (input -> output) slot ranges hop by hop and are
// converted in place to failure acks on conflict; teardown messages walk the
// reserved path via the slot tables and evaporate at the node where their
// setup failed.
#pragma once

#include <vector>

#include "noc/router.hpp"
#include "tdm/controller.hpp"
#include "tdm/slot_table.hpp"

namespace hybridnoc {

/// Callbacks from the router into its co-located NI (same tile, dedicated
/// wires): DLT maintenance for path sharing and hitchhiker bounce delivery.
class CircuitNiHooks {
 public:
  virtual ~CircuitNiHooks() = default;
  /// A setup message successfully reserved (in -> out) at this router for a
  /// connection toward `dest`, crossing the local crossbar at `slot`.
  virtual void on_setup_pass(NodeId dest, int slot, int duration, Port in,
                             Port out, Cycle now) = 0;
  /// A teardown released the reservation riding (slot, in).
  virtual void on_teardown_pass(int slot, Port in, Cycle now) = 0;
  /// The router forwarded circuit traffic on the reservation riding
  /// (slot, in): the path is confirmed end to end and safe to share.
  virtual void on_circuit_use(int slot, Port in, Cycle now) = 0;
  /// A hitchhiking packet lost to contention (or a stale path) at the
  /// crossbar; the NI must re-send it packet-switched (Section III-A1).
  /// `pkt` is kept alive by the head flit's still-unconsumed flight
  /// reference for the duration of the call.
  virtual void on_hitchhike_bounce(Packet* pkt, Cycle now) = 0;
};

class HybridRouter : public Router {
 public:
  HybridRouter(const NocConfig& cfg, NodeId id, const Mesh& mesh,
               TdmController* ctrl);

  void set_ni_hooks(CircuitNiHooks* hooks) { ni_hooks_ = hooks; }

  SlotTable& slots() { return slots_; }
  const SlotTable& slots() const { return slots_; }

  /// NI-side pre-check: are the local input's slots [slot, slot+dur) free?
  bool local_input_free(int slot, int duration) const {
    return slots_.input_free(slot, duration, Port::Local);
  }

  /// Is the shared entry a hitchhiker wants still in place for a flit that
  /// will cross the crossbar at `crossing_cycle`?
  bool share_entry_ok(Cycle crossing_cycle, Port in, Port out) const {
    const auto e = slots_.lookup(crossing_cycle, in);
    return e.has_value() && *e == out;
  }

  // --- active-set scheduling ---
  bool sched_busy() const override;
  Cycle sched_next_event(Cycle now) const override;

  /// Checkpoint: base router state (counters included) plus the slot table.
  /// Requires no in-flight circuit traversal or hitchhike latch.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  void collect_in_flight(std::vector<Packet*>& out) const override;

 protected:
  bool handle_arrival(Flit& flit, Port in, Cycle now) override;
  bool st_ok(Port in, Port out, Cycle st_cycle) override;
  std::optional<Port> compute_route(Packet* pkt, Port in, Cycle now) override;
  void on_config_corrupt(Packet* pkt) override;
  void traverse_circuit(Cycle now) override;
  void leakage_tick(Cycle now) override;
  void accumulate_idle_energy(EnergyCounters& e, std::uint64_t ncycles) const override;

 private:
  std::optional<Port> process_setup(Packet* pkt, Port in, Cycle now);
  std::optional<Port> process_teardown(Packet* pkt, Port in, Cycle now);

  /// Will a circuit-switched flit arrive on `port` exactly at `cycle`?
  /// (The advance-signal wire of Section II-D.)
  bool cs_arrival_expected(Port port, Cycle cycle) const;
  const Flit* peek_arrival(Port port, Cycle cycle) const;

  /// Crossbar output a circuit flit arriving at Local at `cycle` will claim.
  std::optional<Port> local_cs_target(Cycle cycle) const;

  std::optional<Port> take_hh_override(Cycle now);

  struct CsTraversal {
    Flit flit;
    Port out;
  };

  SlotTable slots_;
  TdmController* ctrl_;
  CircuitNiHooks* ni_hooks_ = nullptr;
  std::vector<CsTraversal> cs_now_;
  /// Scheduled crossbar outputs for body flits of an accepted hitchhiker
  /// packet (the "in-progress hitchhike" latch): cycle -> output port.
  std::vector<std::pair<Cycle, Port>> hh_overrides_;
};

}  // namespace hybridnoc
