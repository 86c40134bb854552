// Shared experiment-run parameter/result types, split out of driver.hpp so
// the transfer-level fast model (src/fastmodel) can produce the same stats
// surface without linking against the cycle core's driver. driver.hpp
// re-exports everything here; existing includes keep working.
#pragma once

#include <cstdint>

#include "power/energy_model.hpp"
#include "traffic/synthetic.hpp"

namespace hybridnoc {

/// num/den, or 0 when den is 0. Flit-mix fractions must stay finite even
/// when a measurement window carries none of the relevant flit classes
/// (e.g. only config traffic).
inline double safe_ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Which simulation engine a run uses.
///  * Cycle: the cycle-accurate core (routers, channels, per-flit events) —
///    the ground truth every figure is calibrated against.
///  * Fast: the transfer-level model (src/fastmodel) — whole packet
///    transfers over link-by-link routes with analytic congestion and
///    serialization; ~75x the cycle throughput, accuracy-gated against the
///    cycle core by the `accuracy` test label (see EXPERIMENTS.md).
enum class Fidelity : std::uint8_t { Cycle, Fast };

inline const char* fidelity_name(Fidelity f) {
  return f == Fidelity::Cycle ? "cycle" : "fast";
}

struct RunParams {
  TrafficPattern pattern = TrafficPattern::UniformRandom;
  /// Offered load in flits/node/cycle (payload-equivalent 5-flit packets).
  double injection_rate = 0.1;
  std::uint64_t warmup_packets = 1000;
  /// Warmup also runs at least this many cycles so queues reach steady
  /// state before measurement even when packets complete quickly.
  std::uint64_t warmup_min_cycles = 3000;
  std::uint64_t measure_packets = 20000;
  /// Hard cycle budget; hitting it marks the run saturated.
  std::uint64_t max_cycles = 300000;
  /// Mean latency above which a run is declared saturated early.
  double latency_cap = 500.0;
  std::uint64_t seed = 1;
  /// Engine selection; run_synthetic dispatches on it.
  Fidelity fidelity = Fidelity::Cycle;
};

struct RunResult {
  double offered_rate = 0.0;    ///< flits/node/cycle offered
  double accepted_rate = 0.0;   ///< payload-equivalent flits/node/cycle delivered
  double avg_latency = 0.0;     ///< cycles, creation -> delivery
  double p99_latency = 0.0;
  bool saturated = false;
  std::uint64_t measured_packets = 0;
  std::uint64_t cycles = 0;     ///< measurement-window cycles
  EnergyCounters energy;        ///< measurement-window counters
  double cs_flit_fraction = 0.0;
  double config_flit_fraction = 0.0;

  /// Total network energy (pJ) over the measurement window.
  double total_energy_pj(const EnergyParams& p = EnergyParams::nangate45()) const {
    return compute_breakdown(energy, p).total();
  }
};

/// What one measurement window counted (cycles == 0: it never opened).
/// delivered/generated count payload flits as the workload injected them,
/// not the (possibly CS-compressed) wire flits, so fidelities and switching
/// modes compare on identical payload; ps/cs/config count wire flits.
struct WindowTally {
  std::uint64_t cycles = 0, measured_packets = 0;
  bool saturated = false;  ///< an engine-specific saturation sign
  std::uint64_t delivered_flits = 0, generated_flits = 0;
  std::uint64_t ps_flits = 0, cs_flits = 0, config_flits = 0;
  EnergyCounters energy;
};

/// The RunResult of a window over `nodes` nodes, but for the latency
/// statistics, which stay per engine. A window short of measure_packets is
/// saturated, and so is one accepting under 85% of what was actually offered
/// (patterns where some nodes never inject, e.g. the transpose diagonal,
/// make the nominal rate an overestimate).
inline RunResult window_result(const RunParams& params, double offered_rate,
                               int nodes, const WindowTally& w) {
  RunResult r;
  r.offered_rate = offered_rate;
  r.measured_packets = w.measured_packets;
  r.cycles = w.cycles;
  r.saturated = w.saturated || w.measured_packets < params.measure_packets;
  if (w.cycles == 0) return r;
  const double node_cycles =
      static_cast<double>(nodes) * static_cast<double>(w.cycles);
  r.accepted_rate = static_cast<double>(w.delivered_flits) / node_cycles;
  const double offered_actual =
      static_cast<double>(w.generated_flits) / node_cycles;
  if (r.accepted_rate < 0.85 * offered_actual) r.saturated = true;
  r.energy = w.energy;
  const auto ps = static_cast<double>(w.ps_flits);
  const auto cs = static_cast<double>(w.cs_flits);
  const auto cf = static_cast<double>(w.config_flits);
  r.cs_flit_fraction = safe_ratio(cs, ps + cs);
  r.config_flit_fraction = safe_ratio(cf, ps + cs + cf);
  return r;
}

}  // namespace hybridnoc
