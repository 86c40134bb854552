// Crash-safe sweep orchestrator.
//
// run_sweep expands nothing itself — it takes an already-expanded SweepSpec
// and drives every point to one of three terminal states:
//
//   * served from the integrity-checked result cache (corrupt entries are
//     detected by digest and silently recomputed),
//   * computed by run_synthetic (the measurement `hybridnoc synth` makes)
//     on the persistent worker pool — with per-point wall-clock timeouts,
//     capped-exponential-backoff retries and read-back-verified atomic
//     result writes — and journaled `done`, or
//   * quarantined after the retry budget, journaled so the decision
//     survives restarts.
//
// The sweep itself never aborts for a per-point failure: whatever could not
// be computed is accounted for in the DegradationReport. A `kill -9` at any
// moment is recoverable: rerunning the same spec against the same output
// directory replays the journal (torn tail tolerated), reuses every stored
// result, keeps quarantine decisions sticky, and produces a byte-identical
// aggregate.tsv.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/run_types.hpp"
#include "sweep/sweep_spec.hpp"

namespace hybridnoc::sweep {

enum class FaultAction : std::uint8_t { None, Throw, Hang, TornWrite };

/// Deterministic orchestrator-fault harness (tests only): the action for a
/// given attempt is a pure function of (seed, config hash, attempt), so
/// every recovery path — worker exceptions, hung workers, torn result
/// writes — replays identically under a fixed seed. Probabilities are
/// cumulative thresholds into one uniform hash draw.
struct SweepFaultPlan {
  bool enabled = false;
  std::uint64_t seed = 1;
  double throw_prob = 0.0;
  double hang_prob = 0.0;        ///< requires a timeout to recover from
  double torn_write_prob = 0.0;  ///< result file corrupted after the write
  FaultAction action(std::uint64_t config_hash, int attempt) const;
};

struct SweepOptions {
  std::string out_dir;  ///< holds results/, journal, aggregate
  int workers = 4;
  /// Most workers the hybridnoc_sweep tool accepts: the pool starts them
  /// all up front.
  static constexpr int kMaxWorkers = 256;
  /// Attempts per point before quarantine (>= 1).
  int max_attempts = 3;
  /// Per-point wall-clock budget; 0 disables timeouts. A timed-out worker
  /// is abandoned and replaced (see worker_pool.hpp).
  std::uint64_t timeout_ms = 0;
  /// Retry backoff: min(cap, base << (attempt-1)) plus deterministic
  /// jitter keyed by (point hash, attempt).
  std::uint64_t backoff_base_ms = 10;
  std::uint64_t backoff_cap_ms = 2000;
  /// Replay an existing journal (the default). false truncates the journal
  /// and re-decides everything; content-addressed results remain valid and
  /// are still reused.
  bool resume = true;
  SweepFaultPlan faults;
};

struct ConfigOutcome {
  std::string label;
  std::uint64_t hash = 0;
  RunResult result;        ///< valid when ok
  bool ok = false;
  bool from_cache = false;
  bool quarantined = false;
  int attempts = 0;  ///< failed attempts charged against this point
  std::string last_error;
};

/// What the sweep could not deliver, and what the recovery machinery did.
struct DegradationReport {
  int points = 0;
  int completed = 0;
  int cache_hits = 0;
  int quarantined = 0;
  int retries = 0;   ///< failed attempts that were retried
  int timeouts = 0;  ///< attempts abandoned on the wall clock
  int corrupt_results_recomputed = 0;
  int workers_abandoned = 0;
  int torn_journal_lines = 0;
  bool resumed = false;
  bool complete() const { return quarantined == 0; }
  std::string to_string() const;
};

struct SweepReport {
  std::vector<ConfigOutcome> outcomes;  ///< spec order
  DegradationReport degradation;
  std::string aggregate_path;  ///< the aggregate.tsv that was written
};

/// Run (or resume) `spec` into opt.out_dir. Per-point failures never throw
/// — they quarantine. Throws std::runtime_error only for environment-level
/// problems: an uncreatable output directory, or a journal written by a
/// different spec.
SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& opt);

/// Deterministic aggregate serialization (no timestamps, %.17g doubles):
/// byte-identical across kill/resume for the same spec + results. Exposed
/// for the bit-identity tests.
std::string format_aggregate(const SweepSpec& spec,
                             const std::vector<ConfigOutcome>& outcomes);

}  // namespace hybridnoc::sweep
