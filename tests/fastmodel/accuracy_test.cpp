// Two-fidelity accuracy harness (ctest -L accuracy): twin-runs the
// transfer-level fast model against the cycle-accurate core on the same
// seeded scenario and gates the fast model's error per scenario —
//   * mean packet latency within 10%,
//   * total energy per measured packet within 5%.
// Scenarios cover uniform / hotspot / tornado on 6x6 and 8x8 hybrid-TDM
// meshes at low and mid load, the regime the fast model is specified for
// (EXPERIMENTS.md, "Two-fidelity methodology"). Near saturation the model
// is optimistic by design (no head-of-line blocking or VC backpressure), so
// saturated scenarios are a test-setup error here, not a model error.
//
// The harness lives in its own binary under the `accuracy` label so it can
// be run (and timed) on its own: ctest -L accuracy. It runs the cycle core
// once per scenario — seconds, not milliseconds.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "sim/driver.hpp"
#include "workloads/workload.hpp"

namespace hybridnoc {
namespace {

struct Scenario {
  int k;
  TrafficPattern pattern;
  double rate;  // offered flits/node/cycle
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  std::string name = std::to_string(s.k) + "x" + std::to_string(s.k) + "_";
  name += traffic_pattern_name(s.pattern);
  name += "_r" + std::to_string(static_cast<int>(s.rate * 100 + 0.5));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class TwoFidelityAccuracy : public ::testing::TestWithParam<Scenario> {};

TEST_P(TwoFidelityAccuracy, FastModelTracksCycleCore) {
  const Scenario& s = GetParam();
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(s.k);

  RunParams p;
  p.pattern = s.pattern;
  p.injection_rate = s.rate;
  p.measure_packets = 8000;
  p.seed = 1;

  p.fidelity = Fidelity::Cycle;
  const RunResult cycle = run_synthetic(cfg, p);
  p.fidelity = Fidelity::Fast;
  const RunResult fast = run_synthetic(cfg, p);

  ASSERT_FALSE(cycle.saturated) << "scenario is outside the low/mid regime";
  ASSERT_FALSE(fast.saturated);
  ASSERT_GT(cycle.measured_packets, 0u);
  ASSERT_GT(fast.measured_packets, 0u);

  const double lat_err =
      (fast.avg_latency - cycle.avg_latency) / cycle.avg_latency;
  EXPECT_LE(std::abs(lat_err), 0.10)
      << "mean latency: cycle=" << cycle.avg_latency
      << " fast=" << fast.avg_latency;

  // Energy is compared per measured packet: both windows measure the same
  // packet budget, but the finishing-cycle co-count can differ by a few
  // packets, and total energy scales with the window.
  const double cycle_epp =
      cycle.total_energy_pj() / static_cast<double>(cycle.measured_packets);
  const double fast_epp =
      fast.total_energy_pj() / static_cast<double>(fast.measured_packets);
  const double energy_err = (fast_epp - cycle_epp) / cycle_epp;
  EXPECT_LE(std::abs(energy_err), 0.05)
      << "energy/packet: cycle=" << cycle_epp << " fast=" << fast_epp;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TwoFidelityAccuracy,
    ::testing::Values(
        // 6x6: low and mid load per pattern.
        Scenario{6, TrafficPattern::UniformRandom, 0.05},
        Scenario{6, TrafficPattern::UniformRandom, 0.15},
        Scenario{6, TrafficPattern::Hotspot, 0.05},
        Scenario{6, TrafficPattern::Hotspot, 0.10},
        Scenario{6, TrafficPattern::Tornado, 0.05},
        Scenario{6, TrafficPattern::Tornado, 0.15},
        // 8x8: the paper's main grid.
        Scenario{8, TrafficPattern::UniformRandom, 0.05},
        Scenario{8, TrafficPattern::UniformRandom, 0.15},
        Scenario{8, TrafficPattern::Hotspot, 0.05},
        Scenario{8, TrafficPattern::Hotspot, 0.10},
        Scenario{8, TrafficPattern::Tornado, 0.10}),
    scenario_name);

// Workload-zoo twin runs: replay the NN-dataflow and coherence generators
// through run_trace at both fidelities. Trace replay mixes message sizes
// (short circuit-ineligible control flits next to CS-compressed bursts), a
// regime the fast model approximates more coarsely than steady synthetic
// load, so each scenario carries its own drift bounds (measured values in
// EXPERIMENTS.md, "Workload zoo").
struct WorkloadScenario {
  const char* spec;
  int k;
  double lat_bound;     // |relative mean-latency error| ceiling
  double energy_bound;  // |relative energy-per-packet error| ceiling
};

// Without this gtest prints the raw bytes of the scenario, which include the
// ASLR-randomised `spec` pointer and uninitialised padding, so the listed test
// name would change from one run to the next.
void PrintTo(const WorkloadScenario& s, std::ostream* os) {
  *os << s.spec << ' ' << s.k << 'x' << s.k;
}

std::string workload_scenario_name(
    const ::testing::TestParamInfo<WorkloadScenario>& info) {
  const WorkloadScenario& s = info.param;
  std::string name(s.spec);
  for (char& c : name) {
    if (c == ':') c = '_';
  }
  return name + "_" + std::to_string(s.k) + "x" + std::to_string(s.k);
}

class WorkloadAccuracy : public ::testing::TestWithParam<WorkloadScenario> {};

TEST_P(WorkloadAccuracy, FastModelTracksCycleCore) {
  const WorkloadScenario& s = GetParam();
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(s.k);

  WorkloadOptions wo;
  wo.k = s.k;
  wo.seed = 1;
  const WorkloadTrace wt = build_workload(s.spec, wo);

  RunParams p;
  p.measure_packets = 6000;
  p.seed = 1;
  p.fidelity = Fidelity::Cycle;
  const RunResult cycle = run_trace(cfg, wt.entries, p);
  p.fidelity = Fidelity::Fast;
  const RunResult fast = run_trace(cfg, wt.entries, p);

  ASSERT_FALSE(cycle.saturated) << "workload saturates the cycle core";
  ASSERT_FALSE(fast.saturated);
  ASSERT_GT(cycle.measured_packets, 0u);
  ASSERT_GT(fast.measured_packets, 0u);

  const double lat_err =
      (fast.avg_latency - cycle.avg_latency) / cycle.avg_latency;
  EXPECT_LE(std::abs(lat_err), s.lat_bound)
      << "mean latency: cycle=" << cycle.avg_latency
      << " fast=" << fast.avg_latency;

  const double cycle_epp =
      cycle.total_energy_pj() / static_cast<double>(cycle.measured_packets);
  const double fast_epp =
      fast.total_energy_pj() / static_cast<double>(fast.measured_packets);
  const double energy_err = (fast_epp - cycle_epp) / cycle_epp;
  EXPECT_LE(std::abs(energy_err), s.energy_bound)
      << "energy/packet: cycle=" << cycle_epp << " fast=" << fast_epp;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadAccuracy,
    ::testing::Values(WorkloadScenario{"nn:resnet50", 6, 0.15, 0.10},
                      WorkloadScenario{"nn:resnet50", 8, 0.15, 0.10},
                      WorkloadScenario{"nn:gnmt", 8, 0.20, 0.10},
                      WorkloadScenario{"coherence", 6, 0.15, 0.10},
                      WorkloadScenario{"coherence", 8, 0.15, 0.10}),
    workload_scenario_name);

}  // namespace
}  // namespace hybridnoc
