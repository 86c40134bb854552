// Long link-fault storm (ctest label: faultstorm).
//
// The data-plane counterpart of fault_storm_long_test: 30k cycles of bursty
// multi-pair traffic on a 6x6 mesh under a transient bit-error rate, a
// permanent link death, a stuck-link window and a router death — with a
// light config-message storm layered on top so both fault planes recover at
// once. Meant for the sanitizer build (`cmake -B build-asan -S .
// -DHN_SANITIZE=address;undefined` then `ctest -L faultstorm`); it also runs
// in the default suite, sized to stay a few seconds there.
//
// Checks the acceptance bar in one pass: every injected packet is delivered
// uncorrupted despite the storm, the fabric's final reservation state is
// pristine, and the recorded trace (config decisions + hardware faults +
// fired transients) replays bit-identically with no RNG and no BER hash.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tdm/fault_trace.hpp"

namespace hybridnoc {
namespace {

constexpr NodeId kDeadRouter = 21;  // (3,3) on the 6x6 mesh, interior

FaultScenario make_link_storm(std::uint64_t seed) {
  FaultScenario s;
  s.k = 6;
  s.run_cycles = 30000;
  s.cooldown_cycles = 8000;
  // Light config-message storm so both fault planes are live at once.
  s.fault_params.drop_prob = 0.02;
  s.fault_params.delay_prob = 0.03;
  s.fault_params.max_delay_cycles = 64;
  s.fault_params.seed = seed;
  // Data-plane faults: transient BER for the whole run, one permanent link
  // death, one stuck window, one router death. The killed router is interior
  // and no traffic pair touches it, so nothing becomes unreachable.
  s.link_ber = 5e-4;
  s.link_fault_seed = seed * 7 + 3;
  s.e2e_recovery = true;
  // The retransmission timer runs from launch, so it must cover a loaded
  // round trip (data out + ack back through burst congestion), not just the
  // fault-free flight time — too short and spurious clones feed the very
  // congestion that delayed the ack.
  s.retx_timeout_cycles = 512;
  s.retx_backoff_cap_cycles = 8192;
  s.max_retx_attempts = 10;
  s.cs_fail_threshold = 2;
  s.dead_links = {{14, static_cast<int>(Port::East), 10000, 0}};
  s.stuck_links = {{20, static_cast<int>(Port::North), 16000, 1500}};
  s.dead_routers = {{kDeadRouter, 22000}};
  Rng rng(seed * 1000003 + 11);
  const NodeId nodes = static_cast<NodeId>(s.k * s.k);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<bool> used(nodes, false);
  used[kDeadRouter] = true;
  while (pairs.size() < 8) {
    const NodeId a = static_cast<NodeId>(rng.uniform_int(nodes));
    const NodeId b = static_cast<NodeId>(rng.uniform_int(nodes));
    // Endpoints are pairwise distinct across all pairs: every NI injects one
    // flit per cycle at most, so stacking several bursty flows on one node
    // would oversubscribe it by construction and the test would measure its
    // own overload instead of fault recovery.
    if (used[a] || used[b] || a == b) continue;
    const int hops = std::abs(a % s.k - b % s.k) + std::abs(a / s.k - b / s.k);
    if (hops < s.k / 2 + 1) continue;
    used[a] = used[b] = true;
    pairs.emplace_back(a, b);
  }
  for (Cycle cy = 0; cy < s.run_cycles + s.cooldown_cycles; ++cy) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (((cy >> 9) + i) % 3 != 0) continue;
      // Sized against the *surviving* topology: fault-epoch routing follows
      // the up*/down* spanning tree, which funnels flows through far fewer
      // links than the full mesh, so the offered load must leave headroom
      // for detours plus retransmission copies or the test measures its own
      // oversubscription instead of fault recovery.
      if (rng.bernoulli(0.12)) {
        s.traffic.push_back({cy, pairs[i].first, pairs[i].second, 5});
      }
    }
  }
  return s;
}

TEST(LinkFaultStorm, DeliversEverythingRecoversAndReplaysDeterministically) {
  FaultScenario s = make_link_storm(/*seed=*/13);
  const ScenarioOutcome rec =
      run_fault_scenario(s, ScenarioMode::Record, false, &s.faults);

  // The storm actually bit: transients fired per-hop, destinations squashed
  // dirty packets, and the end-to-end layer had to retransmit.
  EXPECT_GT(rec.router[RouterCounter::CrcFlaggedFlits], 0u);
  EXPECT_GT(rec.ni[NiCounter::CrcSquashedPackets], 0u);
  EXPECT_GT(rec.ni[NiCounter::Retransmits], 0u);
  EXPECT_GT(rec.faults_dropped + rec.faults_delayed, 0u);
  // 1 directed dead link + 8 directed links incident to the dead router.
  EXPECT_EQ(rec.failed_links, 9);

  // The acceptance bar: with CRC + retransmission, 100% of injected packets
  // eventually delivered uncorrupted; nothing gave up, nothing was cut off.
  EXPECT_TRUE(rec.quiesced);
  EXPECT_GT(rec.ni[NiCounter::DataPacketsSent], 1000u);
  EXPECT_EQ(rec.ni[NiCounter::DataPacketsDelivered],
            rec.ni[NiCounter::DataPacketsSent]);
  EXPECT_EQ(rec.ni[NiCounter::RetxGiveUps], 0u);
  EXPECT_EQ(rec.ni[NiCounter::UnreachableFailed], 0u);
  EXPECT_EQ(rec.broken_windows, 0);
  EXPECT_EQ(rec.orphan_entries, 0);
  EXPECT_EQ(rec.valid_slot_entries, 0);
  EXPECT_EQ(rec.active_connections, 0);
  EXPECT_EQ(rec.config_in_flight, 0u);

  // The trace carries the whole storm: config decisions plus the hardware
  // schedule and every fired transient.
  std::size_t config_records = 0;
  bool has_kill = false, has_stuck = false, has_router = false,
       has_corrupt = false;
  for (const FaultRecord& r : s.faults.records) {
    switch (r.kind) {
      case ConfigKind::Link:
        has_kill = has_kill || r.action == FaultAction::Kill;
        has_stuck = has_stuck || r.action == FaultAction::Stuck;
        has_corrupt = has_corrupt || r.action == FaultAction::Corrupt;
        break;
      case ConfigKind::Router:
        has_router = true;
        break;
      default:
        ++config_records;
    }
  }
  EXPECT_TRUE(has_kill);
  EXPECT_TRUE(has_stuck);
  EXPECT_TRUE(has_router);
  EXPECT_TRUE(has_corrupt);
  EXPECT_GT(config_records, 100u);

  // Determinism: replay re-derives the hardware faults from the trace (no
  // BER hash, no schedule fields, no RNG) and reproduces the storm exactly.
  const ScenarioOutcome rep = run_fault_scenario(s, ScenarioMode::Replay);
  EXPECT_EQ(rep.replay_applied, config_records);
  EXPECT_EQ(rep.ni, rec.ni) << first_difference(rep.ni, rec.ni);
  EXPECT_EQ(rep.router, rec.router) << first_difference(rep.router, rec.router);
  EXPECT_EQ(rep.slot_state_digest, rec.slot_state_digest);
  EXPECT_EQ(rep.failed_links, rec.failed_links);
  EXPECT_TRUE(rep.quiesced);
}

}  // namespace
}  // namespace hybridnoc
