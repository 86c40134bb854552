// Pool-on/pool-off twin runs: the block pool is a pure allocation-layer
// optimisation, so switching it off (the shared_ptr-compatible fallback the
// sanitizer builds force) must not perturb a single observable — RunResult
// statistics and every energy counter are bit-identical. This is what lets
// the asan/tsan legs (which compile with HN_POOL_DISABLED) vouch for the
// exact behaviour the pooled production binary exhibits.
#include <gtest/gtest.h>

#include "common/pool.hpp"
#include "sim/driver.hpp"

namespace hybridnoc {
namespace {

RunParams loaded_params() {
  RunParams p;
  p.pattern = TrafficPattern::UniformRandom;
  p.injection_rate = 0.3;
  p.warmup_packets = 200;
  p.warmup_min_cycles = 500;
  p.measure_packets = 3000;
  p.seed = 7;
  return p;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.measured_packets, b.measured_packets);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.offered_rate, b.offered_rate);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.cs_flit_fraction, b.cs_flit_fraction);
  EXPECT_EQ(a.config_flit_fraction, b.config_flit_fraction);
  EXPECT_EQ(a.energy, b.energy) << first_difference(a.energy, b.energy);
}

class PoolTwinRun : public ::testing::TestWithParam<const char*> {};

TEST_P(PoolTwinRun, PoolOnAndPoolOffRunsAreBitIdentical) {
  const NocConfig cfg = std::string(GetParam()) == "tdm"
                            ? NocConfig::hybrid_tdm_vc4(6)
                            : NocConfig::packet_vc4(6);
  const RunParams params = loaded_params();

  BlockPool::set_enabled(true);
  const RunResult pooled = run_synthetic(cfg, params);

  // trim() drops every cached block so the off run starts from the same
  // cold allocator state as a fresh sanitizer-built process.
  BlockPool::set_enabled(false);
  BlockPool::instance().trim();
  const RunResult fallback = run_synthetic(cfg, params);
  BlockPool::set_enabled(true);

  expect_identical(pooled, fallback);
}

INSTANTIATE_TEST_SUITE_P(Archs, PoolTwinRun,
                         ::testing::Values("packet", "tdm"));

}  // namespace
}  // namespace hybridnoc
