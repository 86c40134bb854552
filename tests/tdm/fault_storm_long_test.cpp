// Long seeded config-fault storm (ctest label: storm).
//
// A deliberately heavier, longer soak than the tier-1 fault tests: 30k
// cycles of bursty multi-pair traffic on a 6x6 mesh with drops, delays and
// duplicates all enabled and three dynamic slot-table resizes racing the
// protocol. Meant to be run under the sanitizer build
// (`cmake -B build-asan -S . -DHN_SANITIZE=address;undefined` then
// `ctest -L storm`) where the extra wall-clock buys real coverage; it also
// runs in the default suite, sized to stay a few seconds there.
//
// Checks the full contract in one pass: the storm recovers (no broken or
// orphaned reservations survive the lease), the recorded fault trace
// replays bit-identically with no RNG, and the network-wide reservation
// audit holds after every replayed config event.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tdm/fault_trace.hpp"

namespace hybridnoc {
namespace {

FaultScenario make_long_storm(std::uint64_t seed) {
  FaultScenario s;
  s.k = 6;
  s.run_cycles = 30000;
  s.cooldown_cycles = 6000;
  s.resizes = {5000, 14000, 23000};
  s.dynamic_slot_sizing = true;
  s.fault_params.drop_prob = 0.03;
  s.fault_params.delay_prob = 0.05;
  s.fault_params.dup_prob = 0.03;
  s.fault_params.max_delay_cycles = 96;
  s.fault_params.seed = seed;
  Rng rng(seed * 1000003 + 11);
  const NodeId nodes = static_cast<NodeId>(s.k * s.k);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < 8) {
    const NodeId a = static_cast<NodeId>(rng.uniform_int(nodes));
    const NodeId b = static_cast<NodeId>(rng.uniform_int(nodes));
    const int hops = std::abs(a % s.k - b % s.k) + std::abs(a / s.k - b / s.k);
    if (hops < s.k / 2 + 1) continue;
    pairs.emplace_back(a, b);
  }
  for (Cycle cy = 0; cy < s.run_cycles + s.cooldown_cycles; ++cy) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (((cy >> 9) + i) % 3 != 0) continue;
      if (rng.bernoulli(0.25)) {
        s.traffic.push_back({cy, pairs[i].first, pairs[i].second, 5});
      }
    }
  }
  return s;
}

TEST(FaultStormLong, SurvivesRecoversAndReplaysDeterministically) {
  FaultScenario s = make_long_storm(/*seed=*/7);
  const ScenarioOutcome rec =
      run_fault_scenario(s, ScenarioMode::Record, false, &s.faults);

  // The storm actually exercised the harness.
  ASSERT_GT(s.faults.records.size(), 100u);
  ASSERT_GT(s.faults.active_faults(), 10u);
  EXPECT_GT(rec.faults_dropped + rec.faults_delayed + rec.faults_duplicated,
            10u);

  // Recovery: whatever the storm broke, timeouts and the reservation lease
  // cleaned up — the final state is pristine.
  EXPECT_TRUE(rec.quiesced);
  EXPECT_EQ(rec.broken_windows, 0);
  EXPECT_EQ(rec.orphan_entries, 0);
  EXPECT_EQ(rec.valid_slot_entries, 0);
  EXPECT_EQ(rec.active_connections, 0);
  EXPECT_EQ(rec.config_in_flight, 0u);

  // Determinism: the recorded decision sequence replays without RNG to the
  // same counters, recovery path and final slot-table digest, and the
  // per-event reservation audit never sees a broken window.
  const ScenarioOutcome rep =
      run_fault_scenario(s, ScenarioMode::Replay, /*audit_each_event=*/true);
  EXPECT_EQ(rep.replay_applied, s.faults.records.size());
  EXPECT_EQ(rep.faults_dropped, rec.faults_dropped);
  EXPECT_EQ(rep.faults_delayed, rec.faults_delayed);
  EXPECT_EQ(rep.faults_duplicated, rec.faults_duplicated);
  EXPECT_EQ(rep.ni, rec.ni) << first_difference(rep.ni, rec.ni);
  EXPECT_EQ(rep.router, rec.router) << first_difference(rep.router, rec.router);
  EXPECT_EQ(rep.slot_state_digest, rec.slot_state_digest);
  EXPECT_TRUE(rep.quiesced);
  EXPECT_EQ(rep.replay_audit_failures, 0u);
}

}  // namespace
}  // namespace hybridnoc
