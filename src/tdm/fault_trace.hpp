// Deterministic record/replay for the config-message fault harness.
//
// The seeded harness (ConfigFaultParams) makes a failing storm reproducible
// only by seed: nothing says *which* drop or delay mattered. This module
// captures every config-protocol dispatch as a (cycle, message id/kind,
// action) record in a versioned, text-serializable FaultTrace, and replays
// the exact decision sequence with no RNG involved. Records are keyed by
// (kind, src, dst, occurrence) — "the 3rd setup from node 0 to node 23" —
// so a replayed decision lands on the same protocol event even when other
// faults are removed and packet ids or cycles drift. That keying is what
// makes delta-debugging possible: the shrinker (shrink_fault_scenario,
// driven by tools/shrink_fault_trace) removes fault records, re-runs the
// scenario, and keeps the smallest subset that still violates an invariant.
//
// A FaultScenario bundles everything a re-run needs — the config knobs that
// matter to the protocol, the explicit injection schedule (reusing the
// traffic-trace entry format), resize request cycles, the seeded fault
// parameters, and the fault trace — so a shrunk failure checks in as one
// self-contained fixture file.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "noc/counters.hpp"
#include "traffic/trace.hpp"

namespace hybridnoc {

/// Seeded parameters for the config-message fault-injection harness: every
/// outgoing setup/teardown/ack is independently dropped, delayed or
/// duplicated with the given probabilities.
struct ConfigFaultParams {
  double drop_prob = 0.0;
  double delay_prob = 0.0;
  double dup_prob = 0.0;
  Cycle max_delay_cycles = 64;  ///< delays are uniform in [1, max]
  std::uint64_t seed = 1;
};

/// Event kinds a fault record can attach to. Setup/Teardown/AckSuccess are
/// the three config messages the NI dispatches (failure acks are minted in
/// place by a conflicting router and never pass the dispatch hook); Link and
/// Router (v2) carry data-plane hardware faults — `src` is the upstream
/// node, `dst` the directed link's output-port index (Link only).
enum class ConfigKind : std::uint8_t { Setup, Teardown, AckSuccess, Link, Router };

/// What happened to the event. None/Drop/Delay/Duplicate apply to config
/// messages; Corrupt/Stuck/Kill (v2) to Link/Router records — Corrupt is one
/// transient flit corruption (keyed by the link's traversal `occurrence`),
/// Stuck a corrupting window of `delay` cycles from `cycle`, Kill a
/// permanent link or router death at `cycle`.
enum class FaultAction : std::uint8_t {
  None, Drop, Delay, Duplicate, Corrupt, Stuck, Kill
};

const char* config_kind_name(ConfigKind k);
const char* fault_action_name(FaultAction a);
std::optional<ConfigKind> parse_config_kind(const std::string& s);
std::optional<FaultAction> parse_fault_action(const std::string& s);

/// One config-protocol event and the fault decision applied to it.
struct FaultRecord {
  Cycle cycle = 0;      ///< dispatch cycle when recorded (diagnostic only)
  PacketId msg_id = 0;  ///< packet id when recorded (diagnostic only)
  ConfigKind kind = ConfigKind::Setup;
  NodeId src = 0;
  NodeId dst = 0;
  /// nth dispatch with this (kind, src, dst), 0-based — the replay key.
  int occurrence = 0;
  FaultAction action = FaultAction::None;
  Cycle delay = 0;  ///< injection delay in cycles (Delay only)
  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// Replay-key packing: kind in the top bits, then src/dst/occurrence (20
/// bits each — far beyond any mesh or storm this simulator runs), each in
/// [0, kFaultKeyLimit).
inline constexpr int kFaultKeyLimit = 1 << 20;
std::uint64_t fault_record_key(ConfigKind kind, NodeId src, NodeId dst,
                               int occurrence);

/// The full decision sequence of one harness run. v2 traces may also carry
/// the run's data-plane faults (Link/Router records): permanent kills, stuck
/// windows, and every transient corruption that fired.
struct FaultTrace {
  static constexpr int kVersion = 2;  ///< loaders accept [1, kVersion]
  std::vector<FaultRecord> records;

  /// Records whose action is not None (the ones replay must re-apply).
  std::size_t active_faults() const;
  friend bool operator==(const FaultTrace&, const FaultTrace&) = default;
};

/// Text serialization: `hybridnoc-fault-trace v1` header, one record per
/// line, `#` comments ignored. load throws InputError naming `source` and
/// the line on a malformed line or an unknown version.
void save_fault_trace(std::ostream& out, const FaultTrace& trace);
FaultTrace load_fault_trace(std::istream& in,
                            const std::string& source = "fault trace");

/// A self-contained storm: protocol-relevant config knobs, the injection
/// schedule, resize request cycles, seeded fault parameters (record mode)
/// and the fault trace (replay mode). `invariant` names the property a
/// shrunk fixture still violates ("" when unset).
struct FaultScenario {
  int k = 6;
  int slot_table_size = 64;
  bool dynamic_slot_sizing = false;
  int initial_active_slots = 16;
  int path_freq_threshold = 4;
  int policy_epoch_cycles = 256;
  std::uint64_t path_idle_timeout = 1024;
  std::uint64_t pending_setup_timeout_cycles = 2000;
  std::uint64_t reservation_lease_cycles = 4096;
  Cycle run_cycles = 10000;
  /// Fault-free traffic cycles after the storm (timeouts and the lease mop
  /// up while live windows stay refreshed).
  Cycle cooldown_cycles = 6000;
  std::vector<Cycle> resizes;  ///< cycles at which a table resize is requested
  ConfigFaultParams fault_params;

  // --- data-plane faults (v2) ---
  /// One scheduled hardware link fault; duration is StuckLink-only.
  struct LinkFaultSpec {
    NodeId node = 0;
    int port = 0;  ///< Port index 1..4 (East..West)
    Cycle start = 0;
    Cycle duration = 0;
  };
  double link_ber = 0.0;  ///< per-traversal transient corruption probability
  std::uint64_t link_fault_seed = 1;
  bool e2e_recovery = false;
  std::uint64_t retx_timeout_cycles = 256;
  std::uint64_t retx_backoff_cap_cycles = 4096;
  int max_retx_attempts = 6;
  int cs_fail_threshold = 3;
  std::uint64_t watchdog_stall_cycles = 0;
  std::uint64_t setup_backoff_base_cycles = 0;
  std::uint64_t setup_backoff_cap_cycles = 1024;
  /// Record-mode schedule (replay re-derives kills from the trace instead,
  /// so the shrinker can drop them too).
  std::vector<LinkFaultSpec> dead_links;
  std::vector<LinkFaultSpec> stuck_links;
  std::vector<std::pair<NodeId, Cycle>> dead_routers;

  std::string invariant;
  std::vector<TraceEntry> traffic;
  FaultTrace faults;

  NocConfig to_config() const;
};

void save_fault_scenario(std::ostream& out, const FaultScenario& s);
FaultScenario load_fault_scenario(std::istream& in,
                                  const std::string& source = "fault scenario");

/// File helpers (throw InputError on unreadable/unwritable paths).
FaultScenario read_fault_scenario_file(const std::string& path);
void write_fault_scenario_file(const std::string& path,
                               const FaultScenario& s);

/// Everything a scenario run exposes to invariant predicates and tests.
struct ScenarioOutcome {
  // Final state, after cooldown, drain and three reservation leases.
  bool quiesced = false;
  int broken_windows = 0;
  int orphan_entries = 0;
  int valid_slot_entries = 0;
  int active_connections = 0;
  std::uint64_t config_in_flight = 0;
  std::uint64_t slot_state_digest = 0;
  // Storm accounting.
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_duplicated = 0;
  // Replay bookkeeping (replay mode only).
  std::uint64_t replay_events = 0;
  std::uint64_t replay_applied = 0;
  std::uint64_t replay_audit_failures = 0;
  int failed_links = 0;  ///< data-plane faults (v2 scenarios; zero otherwise)
  // Every NI's and router's event counters, summed.
  NiCounters ni;
  RouterCounters router;
};

enum class ScenarioMode : std::uint8_t {
  Record,  ///< seeded faults from fault_params; decision sequence captured
  Replay,  ///< decisions re-driven from the scenario's fault trace
};

/// Build the network, drive the scenario end to end (storm, cooldown,
/// drain, lease expiry) and report the outcome. In Record mode the captured
/// trace is written to `recorded` when non-null. `audit_each_event` runs
/// the network-wide reservation audit after every replayed config event and
/// counts the events after which an installed window failed its walk.
ScenarioOutcome run_fault_scenario(const FaultScenario& s, ScenarioMode mode,
                                   bool audit_each_event = false,
                                   FaultTrace* recorded = nullptr);

/// Invariant registry for the shrinker. `violates_invariant` returns true
/// when `o` VIOLATES the named invariant; unknown names throw InputError.
bool violates_invariant(const std::string& name, const ScenarioOutcome& o);
std::vector<std::string> known_invariants();

/// Delta-debugging (ddmin) minimization: find a 1-minimal subset of the
/// scenario's non-None fault records that still violates `invariant`, and
/// return the scenario rewritten to carry only that subset (None records
/// are dropped — replay treats unmatched events as unfaulted anyway).
struct ShrinkResult {
  FaultScenario minimized;
  std::size_t original_records = 0;  ///< all records, None included
  std::size_t original_faults = 0;   ///< non-None records
  std::size_t final_faults = 0;
  int runs = 0;  ///< scenario executions the search needed
};
ShrinkResult shrink_fault_scenario(
    const FaultScenario& failing, const std::string& invariant,
    bool audit_each_event = false,
    const std::function<void(const std::string&)>& progress = nullptr);

}  // namespace hybridnoc
