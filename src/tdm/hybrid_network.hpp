// The TDM hybrid-switched network: the mesh fabric of src/noc instantiated
// with HybridRouter/HybridNi, plus the network-wide controller for dynamic
// time-division granularity.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "tdm/controller.hpp"
#include "tdm/fault_trace.hpp"
#include "tdm/hybrid_ni.hpp"
#include "tdm/hybrid_router.hpp"

namespace hybridnoc {

/// Result of the network-wide reservation consistency audit: every installed
/// connection window is walked hop by hop against the routers' slot tables.
struct ReservationAudit {
  int windows_walked = 0;
  /// Windows whose walk left the reserved path before its destination
  /// (missing entry, foreign owner, or inconsistent output ports).
  int broken_windows = 0;
  /// Valid slot-table entries no connection window accounts for.
  int orphan_entries = 0;
  bool clean() const { return broken_windows == 0 && orphan_entries == 0; }
};

namespace detail {
/// Holds the controller so it is constructed before the Network base class
/// (whose factories capture it).
struct ControllerHolder {
  explicit ControllerHolder(const NocConfig& cfg)
      : controller(std::make_unique<TdmController>(cfg)) {}
  std::unique_ptr<TdmController> controller;
};
}  // namespace detail

class HybridNetwork : private detail::ControllerHolder, public Network {
 public:
  explicit HybridNetwork(const NocConfig& cfg);

  void tick() override;

  TdmController& controller() { return *ControllerHolder::controller; }
  const TdmController& controller() const { return *ControllerHolder::controller; }

  HybridRouter& hybrid_router(NodeId n) {
    return static_cast<HybridRouter&>(router(n));
  }
  HybridNi& hybrid_ni(NodeId n) { return static_cast<HybridNi&>(ni(n)); }

  // --- config-message fault injection (testing harness) ---
  /// Seeded-random faults. Resets the fault counters so back-to-back
  /// harness runs start from zero.
  void enable_config_faults(const ConfigFaultParams& p);
  void disable_config_faults();
  std::uint64_t faults_dropped() const { return faults_dropped_; }
  std::uint64_t faults_delayed() const { return faults_delayed_; }
  std::uint64_t faults_duplicated() const { return faults_duplicated_; }

  // --- fault-decision record/replay (src/tdm/fault_trace.hpp) ---
  /// Capture every config-protocol dispatch (faulted or not) as a
  /// FaultRecord. Composes with enable_config_faults: enable faults first,
  /// then recording, and the captured trace holds the seeded harness's
  /// exact decision sequence.
  void start_fault_trace_recording();
  void stop_fault_trace_recording();
  bool fault_trace_recording() const { return recording_; }
  const FaultTrace& recorded_fault_trace() const { return recorded_trace_; }

  /// Re-drive a recorded decision sequence with no RNG involved: each
  /// dispatched config message is matched by (kind, src, dst, occurrence)
  /// and the recorded action applied; unmatched events are unfaulted.
  /// Mutually exclusive with enable_config_faults. With
  /// `audit_each_event`, the reservation audit runs after every replayed
  /// event and replay_audit_failures() counts the events after which an
  /// installed window failed its hop-by-hop walk.
  void enable_config_fault_replay(const FaultTrace& trace,
                                  bool audit_each_event = false);
  void disable_config_fault_replay();
  /// Config-protocol dispatches seen while replay was armed.
  std::uint64_t replay_events() const { return replay_events_; }
  /// Trace records whose action was re-applied to a matching dispatch.
  std::uint64_t replay_applied() const { return replay_applied_; }
  /// Events after which the audit reported a broken window (see above).
  std::uint64_t replay_audit_failures() const {
    return replay_audit_failures_;
  }

  /// FNV-1a digest over every valid slot-table entry
  /// (node, slot, in-port, out-port, owner) — a cheap fingerprint for
  /// record-vs-replay final-state comparison.
  std::uint64_t slot_state_digest() const;

  /// Walk every NI's reservation windows against every router's slot table;
  /// see ReservationAudit. Meant for quiesced networks (tests), but safe to
  /// call at any time.
  ReservationAudit audit_reservations() const;

  // --- aggregate circuit statistics ---
  // Every event count is in ni_counters() / router_counters(). These six
  // named reads of them exist because perfbench/hnbench.cpp calls them.
  std::uint64_t total_setups_sent() const {
    return ni_counters()[NiCounter::SetupsSent];
  }
  std::uint64_t total_setup_failures() const {
    return ni_counters()[NiCounter::SetupFailures];
  }
  std::uint64_t total_hitchhike_packets() const {
    return ni_counters()[NiCounter::HitchhikePackets];
  }
  std::uint64_t total_vicinity_packets() const {
    return ni_counters()[NiCounter::VicinityPackets];
  }
  std::uint64_t total_hitchhike_bounces() const {
    return ni_counters()[NiCounter::HitchhikeBounces];
  }
  std::uint64_t total_ps_steals() const {
    return router_counters()[RouterCounter::PsSteals];
  }
  // Gauges: current state, not event counts.
  int total_active_connections() const;
  int total_valid_slot_entries() const;

 protected:
  /// Fast-forward must never jump past a controller epoch boundary or a
  /// pending-resize quiescence poll.
  Cycle external_next_event(Cycle now) const override;

  /// Checkpoint the TDM controller alongside the fabric. Requires the
  /// config-fault harness to be off (its record/replay cursors are not
  /// simulation state and are not serialized).
  void save_external_state(StateWriter& w) const override;
  void restore_external_state(StateReader& r) override;

 private:
  enum class FaultMode : std::uint8_t { Off, Seeded, Replay };

  ConfigFaultDecision next_fault();
  /// The single interception point: draws (Seeded) or looks up (Replay) the
  /// decision for one dispatched config message, records it when recording,
  /// and audits when replaying with audit_each_event.
  ConfigFaultDecision on_config_dispatch(const PacketPtr& pkt, Cycle now);
  /// Install the dispatch interceptor on every NI while any of
  /// seeded faults / recording / replay is active; clear it otherwise.
  void update_fault_hooks();
  void reset_fault_counters();

  ConfigFaultParams fault_params_;
  Rng fault_rng_;
  std::uint64_t faults_dropped_ = 0;
  std::uint64_t faults_delayed_ = 0;
  std::uint64_t faults_duplicated_ = 0;

  FaultMode fault_mode_ = FaultMode::Off;
  bool recording_ = false;
  bool replay_audit_each_event_ = false;
  FaultTrace recorded_trace_;
  FaultTrace replay_trace_;
  /// (kind, src, dst) -> dispatches seen, independent streams for the
  /// recording and replay sides so they can coexist.
  std::unordered_map<std::uint64_t, int> record_occurrence_;
  std::unordered_map<std::uint64_t, int> replay_occurrence_;
  /// Full (kind, src, dst, occurrence) key -> index into replay_trace_.
  std::unordered_map<std::uint64_t, std::size_t> replay_index_;
  std::uint64_t replay_events_ = 0;
  std::uint64_t replay_applied_ = 0;
  std::uint64_t replay_audit_failures_ = 0;

  /// Epoch-stamped visited scratch for audit_reservations: a cell is
  /// "visited" iff it holds the current epoch, so consecutive audits reuse
  /// the allocation without clearing it (mutable: the audit is logically
  /// const). Layout [node][slot * kNumPorts + in_port].
  mutable std::vector<std::uint32_t> audit_scratch_;
  mutable std::uint32_t audit_epoch_ = 0;
};

}  // namespace hybridnoc
