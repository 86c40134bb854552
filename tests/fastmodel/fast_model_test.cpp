// Unit tests for the transfer-level fast model: zero-load timing against
// the analytic pipeline formula, bit-determinism per seed, saturation
// detection, engine dispatch via RunParams::fidelity, and the supported-
// configuration gate. Cross-fidelity accuracy against the cycle core lives
// in accuracy_test.cpp (ctest -L accuracy).
#include "fastmodel/fast_model.hpp"

#include <gtest/gtest.h>

#include "sim/driver.hpp"
#include "tdm/switching_policy.hpp"

namespace hybridnoc {
namespace {

RunParams base_params(TrafficPattern pattern, double rate) {
  RunParams p;
  p.pattern = pattern;
  p.injection_rate = rate;
  p.seed = 11;
  p.fidelity = Fidelity::Fast;
  return p;
}

TEST(FastModel, ZeroLoadFormulaMatchesCyclePipeline) {
  // 5 cycles per hop (3 router pipeline + 2 link), 2 injection + 5
  // destination/ejection overhead cycles minus the head's counted hop, and
  // the tail trails flits-1 cycles: 5h + 6 + F.
  EXPECT_DOUBLE_EQ(zero_load_ps_latency(1, 5), 16.0);
  EXPECT_DOUBLE_EQ(zero_load_ps_latency(2, 5), 21.0);
  EXPECT_DOUBLE_EQ(zero_load_ps_latency(14, 1), 77.0);
}

TEST(FastModel, NearZeroLoadLatencyMatchesAnalyticMean) {
  // At a vanishing injection rate queueing is negligible, so the measured
  // mean must sit on the zero-load formula averaged over the uniform pair
  // distribution (self-pairs excluded, like the generator).
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  const Mesh mesh(cfg.k);
  double expect_sum = 0.0;
  int pairs = 0;
  for (NodeId s = 0; s < mesh.num_nodes(); ++s) {
    for (NodeId d = 0; d < mesh.num_nodes(); ++d) {
      if (s == d) continue;
      const Coord a = mesh.coord(s);
      const Coord b = mesh.coord(d);
      const int hops = std::abs(a.x - b.x) + std::abs(a.y - b.y);
      expect_sum += zero_load_ps_latency(hops, cfg.ps_data_flits);
      ++pairs;
    }
  }
  const double expected = expect_sum / pairs;

  RunParams p = base_params(TrafficPattern::UniformRandom, 0.002);
  p.warmup_packets = 200;  // packets are sparse: keep the run short
  p.measure_packets = 2000;
  p.max_cycles = 30'000'000;
  const RunResult r = run_synthetic_fast(cfg, p);
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.avg_latency, expected, expected * 0.02);
}

TEST(FastModel, DeterministicForSeedAcrossPatterns) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(6);
  for (TrafficPattern pat : {TrafficPattern::UniformRandom,
                             TrafficPattern::Hotspot, TrafficPattern::Tornado}) {
    RunParams p = base_params(pat, 0.15);
    p.measure_packets = 5000;
    const RunResult a = run_synthetic_fast(cfg, p);
    const RunResult b = run_synthetic_fast(cfg, p);
    EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
    EXPECT_DOUBLE_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.measured_packets, b.measured_packets);
    EXPECT_DOUBLE_EQ(a.total_energy_pj(), b.total_energy_pj());

    p.seed = 12;
    const RunResult c = run_synthetic_fast(cfg, p);
    EXPECT_NE(a.avg_latency, c.avg_latency);
  }
}

TEST(FastModel, DetectsSaturationAtOverload) {
  // 0.95 flits/node/cycle of uniform traffic is far beyond an 8x8 mesh's
  // bisection capacity; the run must flag saturation instead of reporting a
  // meaningless equilibrium latency.
  RunParams p = base_params(TrafficPattern::UniformRandom, 0.95);
  p.measure_packets = 20000;
  const RunResult r = run_synthetic_fast(NocConfig::hybrid_tdm_vc4(8), p);
  EXPECT_TRUE(r.saturated);
}

TEST(FastModel, DriverDispatchesOnFidelity) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  RunParams p = base_params(TrafficPattern::UniformRandom, 0.1);
  p.measure_packets = 3000;
  const RunResult direct = run_synthetic_fast(cfg, p);
  const RunResult via_driver = run_synthetic(cfg, p);
  EXPECT_DOUBLE_EQ(direct.avg_latency, via_driver.avg_latency);
  EXPECT_EQ(direct.cycles, via_driver.cycles);
}

TEST(FastModel, ReportsCircuitSwitchedFlits) {
  // Hotspot traffic at a mid rate repeatedly exercises the same pairs, so
  // the TDM layer must establish circuits and the CS flit fraction must
  // show up on the stats surface, like the cycle core's.
  RunParams p = base_params(TrafficPattern::Hotspot, 0.2);
  p.measure_packets = 10000;
  const RunResult r = run_synthetic_fast(NocConfig::hybrid_tdm_vc4(8), p);
  EXPECT_GT(r.cs_flit_fraction, 0.0);
  EXPECT_LE(r.cs_flit_fraction, 1.0);
}

TEST(FastModel, SupportGateNamesUnsupportedFeatures) {
  std::string why;
  EXPECT_TRUE(fast_model_supports(NocConfig::hybrid_tdm_vc4(4), &why));

  NocConfig sharing = NocConfig::hybrid_tdm_vc4(4);
  sharing.hitchhiker_sharing = true;
  EXPECT_FALSE(fast_model_supports(sharing, &why));
  EXPECT_NE(why.find("sharing"), std::string::npos);

  NocConfig faults = NocConfig::hybrid_tdm_vc4(4);
  faults.link_ber = 1e-9;
  EXPECT_FALSE(fast_model_supports(faults, &why));
  EXPECT_NE(why.find("fault"), std::string::npos);

  EXPECT_DEATH((void)run_synthetic_fast(sharing, base_params(
                   TrafficPattern::UniformRandom, 0.1)),
               "sharing");
}

TEST(FastModel, RejectsMeshBeyond16BitNodeIds) {
  std::string why;
  EXPECT_TRUE(fast_model_supports(NocConfig::hybrid_tdm_vc4(256), &why));
  EXPECT_FALSE(fast_model_supports(NocConfig::hybrid_tdm_vc4(257), &why));
  EXPECT_NE(why.find("16-bit"), std::string::npos) << why;
  EXPECT_NE(why.find("HopEvent"), std::string::npos) << why;
}

}  // namespace
}  // namespace hybridnoc
