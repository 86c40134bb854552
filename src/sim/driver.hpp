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

/// Load sweep: one run per rate (stops early once saturated twice).
std::vector<RunResult> sweep_load(const NocConfig& cfg, RunParams params,
                                  const std::vector<double>& rates);

/// Saturation throughput: largest accepted rate over a geometric rate scan.
double saturation_throughput(const NocConfig& cfg, RunParams params,
                             double start_rate = 0.05, double step = 0.025,
                             double max_rate = 1.0);

}  // namespace hybridnoc
