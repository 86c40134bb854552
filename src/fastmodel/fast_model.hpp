// Transfer-level fast model: simulates whole packet transfers over
// link-by-link XY routes with analytic congestion and serialization delay,
// instead of ticking every router/flit every cycle. It reuses the repo's
// Mesh/routing code for topology, the TDM SlotTable for circuit
// reservations, and the event-based energy model's counting rules, so it
// produces the same RunResult stats surface (latency histogram, energy
// counters, CS flit fraction) as the cycle core at ~75x the cycle
// throughput (gated by bench_fastmodel_speedup).
//
// Timing model, calibrated against the cycle core's zero-load pipeline
// (2-cycle data channels, 1 cycle each for buffer-write wait, VA and SA):
//   * a packet-switched head flit costs 5 cycles per hop (3 router pipeline
//     + 2 link), +2 for the injection channel, +5 for the destination
//     router and ejection channel, and the tail trails flits-1 cycles:
//     zero-load latency = 5*hops + 6 + flits (zero_load_ps_latency);
//   * every network interface serializes at one flit per cycle (a packet
//     occupies the source NI for `flits` cycles);
//   * every directed link and every ejection port is a FIFO server a
//     transfer occupies for `flits` cycles; queueing delay emerges from the
//     per-server busy-until times, processed in global creation order;
//   * TDM circuits call tdm/switching_policy.hpp, the policy HybridNi runs
//     (setup triggers and admission, slot draw, switching decision).
//     Reservations walk real SlotTables (slot+2 per hop), CS transfers ride
//     reserved windows at one packet per table rotation, and packet-switched
//     transfers share residual link capacity (reserved-but-unused slots cost
//     nothing when time-slot stealing is on, matching the paper). Only the
//     mechanism is this model's own: a closed-form earliest window instead
//     of a search of planned injections, and a synchronous setup walk
//     instead of config messages with retries.
//
// Approximations (see EXPERIMENTS.md "Two-fidelity methodology"): no
// head-of-line blocking or VC backpressure (optimistic near saturation), no
// adaptive-routing spread for setups (circuits take the XY route), CS
// injections do not contend with the NI's packet-switched serializer. The
// accuracy harness (ctest -L accuracy) twin-runs both fidelities and gates
// mean latency within 10% and total energy within 5% at low/mid load.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/run_types.hpp"
#include "traffic/trace.hpp"

namespace hybridnoc {

/// True when the fast model supports `cfg`; otherwise fills `why` (if
/// non-null) with the unsupported feature. Supported: PacketSwitched and
/// HybridTdm without path sharing, VC power gating, dynamic slot sizing or
/// fault injection — the cycle core remains the engine for those.
bool fast_model_supports(const NocConfig& cfg, std::string* why = nullptr);

/// One transfer-level run of `cfg` under a synthetic pattern, mirroring
/// run_synthetic's warmup/measurement/saturation methodology. Throws
/// InputError on an invalid config; aborts (HN_CHECK) when
/// !fast_model_supports(cfg).
RunResult run_synthetic_fast(const NocConfig& cfg, const RunParams& params);

/// Transfer-level twin of run_trace: replays `entries` (looped) with the
/// same methodology. Message sizes come from the trace; entries shorter
/// than cfg.cs_data_flits are circuit-ineligible (circuit_eligible). Throws
/// InputError on an invalid config or a trace that fails check_trace;
/// aborts (HN_CHECK) when !fast_model_supports(cfg).
RunResult run_trace_fast(const NocConfig& cfg,
                         const std::vector<TraceEntry>& entries,
                         const RunParams& params);

}  // namespace hybridnoc
