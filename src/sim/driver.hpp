// Synthetic-workload experiment driver: warm the network, measure a fixed
// number of packets, report latency / accepted throughput / energy — the
// methodology of Section IV (network warmed with 1000 packets, then
// measured; we default to shorter windows sized for CI-class machines and
// let the benches pick the paper-scale 100k-packet windows).
//
// RunParams.fidelity selects the engine: Cycle runs the cycle-accurate core
// below; Fast dispatches to the transfer-level model in src/fastmodel, which
// produces the same RunResult surface at ~75x the cycle throughput.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/net_adapter.hpp"
#include "sim/run_types.hpp"

#include "traffic/trace.hpp"

namespace hybridnoc {

/// One run of `cfg` under a synthetic pattern (dispatches on
/// params.fidelity).
RunResult run_synthetic(const NocConfig& cfg, const RunParams& params);

/// One run of `cfg` replaying `entries` (looped, so a short capture models
/// steady state), with the same warmup/measure/saturation methodology as
/// run_synthetic. Dispatches on params.fidelity; params.pattern and
/// params.injection_rate are ignored (the trace defines both — the reported
/// offered_rate is total trace flits / (span * nodes)). Messages shorter
/// than cfg.cs_data_flits are marked circuit-ineligible: a control message
/// would be padded out by the fixed CS transfer size, so short traffic
/// always packet-switches (the heterogeneous model's CPU-traffic rule).
/// Throws InputError when the trace fails check_trace.
RunResult run_trace(const NocConfig& cfg,
                    const std::vector<TraceEntry>& entries,
                    const RunParams& params);

// --- warmup checkpointing (the sweep methodology, EXPERIMENTS.md) ---
//
// The drained-run methodology splits a synthetic run into two phases with a
// quiescent seam between them: warm under the standard criterion
// (warmup_packets delivered and warmup_min_cycles elapsed), freeze policy
// and drain the network empty, then unfreeze and measure. Because the
// network is quiescent at the seam, the whole simulation state can be
// serialized there; measuring from a restored snapshot is bit-identical to
// measuring in place (asserted by the checkpoint equivalence suite), so a
// sweep snapshots one warmup and forks it across the points that share it.
//
// Cycle fidelity, mesh-backed architectures (packet / TDM hybrid) only;
// requires cfg.link_ber == 0 and cfg.tick_threads == 1 (HN_CHECK).

/// A sealed warmup checkpoint. `ok` is false when the drain did not reach
/// quiescence within params.max_cycles (heavily saturated configs) — such
/// runs fall back to the in-place path.
struct WarmupSnapshot {
  bool ok = false;
  bool saturated = false;  ///< source queues diverged during warmup
  std::string sealed;      ///< digest-protected archive (safe to persist)
};

/// Warm `cfg` under params' synthetic pattern, drain, and checkpoint. The
/// archive embeds the warmup-relevant cfg/params fields and refuses to
/// restore against a different warmup.
WarmupSnapshot warmup_snapshot(const NocConfig& cfg, const RunParams& params);

/// Measure starting from a warmup_snapshot() archive. Throws StateError on
/// a truncated, corrupted, or mismatched archive — callers treat that as a
/// cache miss and recompute. Measure-phase params (measure_packets,
/// max_cycles, latency_cap) may differ from the snapshotting run.
RunResult run_synthetic_from_snapshot(const NocConfig& cfg,
                                      const RunParams& params,
                                      const std::string& sealed);

/// The in-place twin: warm + drain + measure in one process without
/// serializing. Shares the warmup and measurement loops with the snapshot
/// path, so (run_synthetic_drained, warmup_snapshot +
/// run_synthetic_from_snapshot) form a provable restore ≡ cold-run pair.
RunResult run_synthetic_drained(const NocConfig& cfg, const RunParams& params);

/// Load sweep: one run per rate (stops early once saturated twice).
std::vector<RunResult> sweep_load(const NocConfig& cfg, RunParams params,
                                  const std::vector<double>& rates);

/// Saturation throughput: largest accepted rate over a geometric rate scan.
double saturation_throughput(const NocConfig& cfg, RunParams params,
                             double start_rate = 0.05, double step = 0.025,
                             double max_rate = 1.0);

}  // namespace hybridnoc
