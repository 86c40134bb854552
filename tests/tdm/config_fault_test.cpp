// The path-configuration protocol under adversity: a dynamic slot-table
// resize racing in-flight config messages, a lost acknowledgement, and
// sustained drop/delay/duplicate fault injection — all cross-checked with the
// network-wide reservation consistency audit.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {
namespace {

PacketPtr make_data(PacketId id, NodeId src, NodeId dst) {
  auto p = std::make_shared<Packet>();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->num_flits = 5;
  return p;
}

NocConfig cfg_fault() {
  NocConfig c = NocConfig::hybrid_tdm_vc4(6);
  c.slot_table_size = 64;
  c.path_freq_threshold = 4;
  c.policy_epoch_cycles = 256;
  c.path_idle_timeout = 1024;
  c.pending_setup_timeout_cycles = 2000;
  c.reservation_lease_cycles = 4096;
  return c;
}

// The original bug: a resize between a setup's departure and its completion
// changed the active size S, so the source reconstructed src_slot with the
// wrong modulus and aborted on a consistency check (or installed a window
// over reservations the reset had already wiped). With generation fencing
// the straggling messages are simply discarded.
TEST(ConfigFault, ResizeWhileSetupInFlightIsFenced) {
  NocConfig cfg = cfg_fault();
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 16;
  HybridNetwork net(cfg);
  const NodeId src = 0;
  const NodeId dst = net.mesh().node({5, 5});  // 10 hops: setup stays in flight
  PacketId id = 1;
  for (int i = 0; i < 5; ++i) net.ni(src).send(make_data(id++, src, dst), net.now());
  for (int i = 0; i < 8; ++i) net.tick();
  ASSERT_GT(net.controller().config_in_flight(), 0u);  // setup mid-path
  net.controller().request_resize();
  for (int i = 0; i < 3000; ++i) net.tick();
  EXPECT_EQ(net.controller().table_generation(), 1u);
  EXPECT_EQ(net.controller().active_slots(), 32);
  // The straggler hit a generation fence instead of reserving under the new
  // tables or tripping the src_slot consistency check.
  EXPECT_GT(net.ni_counters()[NiCounter::StaleConfigDrops] +
                net.router_counters()[RouterCounter::StaleConfigDrops],
            0u);
  EXPECT_FALSE(net.hybrid_ni(src).has_connection(dst));
  EXPECT_EQ(net.controller().config_in_flight(), 0u);
  EXPECT_EQ(net.total_valid_slot_entries(), 0);
  const auto audit = net.audit_reservations();
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.windows_walked, 0);
}

// Losing an AckSuccess used to wedge the destination forever: the pending
// entry blocked every future setup to that node while the reserved path sat
// orphaned. The pending-setup timeout now reclaims both.
TEST(ConfigFault, DroppedAckDestinationRecoversAfterTimeout) {
  NocConfig cfg = cfg_fault();
  HybridNetwork net(cfg);
  const NodeId src = 0;
  const NodeId dst = net.mesh().node({3, 0});
  int ack_drops = 0;
  net.hybrid_ni(dst).set_config_fault_hook(
      [&ack_drops](const PacketPtr& p, Cycle) {
        ConfigFaultDecision d;
        if (p->type == MsgType::AckSuccess && ack_drops == 0) {
          ++ack_drops;
          d.action = ConfigFaultDecision::Action::Drop;
        }
        return d;
      });
  PacketId id = 1;
  Cycle connected_at = 0;
  for (int cycle = 0; cycle < 12000; ++cycle) {
    if (cycle % 8 == 0) net.ni(src).send(make_data(id++, src, dst), net.now());
    net.tick();
    if (connected_at == 0 && net.hybrid_ni(src).has_connection(dst)) {
      connected_at = net.now();
    }
  }
  EXPECT_EQ(ack_drops, 1);
  EXPECT_EQ(net.ni(src).counters()[NiCounter::PendingTimeouts], 1u);
  ASSERT_TRUE(net.hybrid_ni(src).has_connection(dst));
  // Recovery could only start once the pending entry timed out.
  EXPECT_GT(connected_at, Cycle{cfg.pending_setup_timeout_cycles});
  // The timeout teardown released the orphaned first path: the audit sees
  // only the live window (the lease, 4x longer, has not fired for it).
  const auto audit = net.audit_reservations();
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.windows_walked, 1);
}

// Every config message duplicated: duplicate setups lose the slot race at the
// source router and bounce as failures, duplicate acks and teardowns are
// fenced by owner tags and window bookkeeping. Nothing crashes and no
// reservation survives unaccounted.
TEST(ConfigFault, DuplicatedConfigMessagesAreHarmless) {
  NocConfig cfg = cfg_fault();
  HybridNetwork net(cfg);
  ConfigFaultParams faults;
  faults.dup_prob = 1.0;
  faults.seed = 3;
  net.enable_config_faults(faults);
  PacketId id = 1;
  const NodeId src = 0;
  const NodeId dst = net.mesh().node({4, 1});
  for (int cycle = 0; cycle < 8000; ++cycle) {
    if (cycle % 8 == 0) net.ni(src).send(make_data(id++, src, dst), net.now());
    net.tick();
  }
  EXPECT_GT(net.faults_duplicated(), 0u);
  net.disable_config_faults();
  net.set_policy_frozen(true);
  for (int i = 0; i < 40000 && !net.quiescent(); ++i) net.tick();
  ASSERT_TRUE(net.quiescent());
  // Let idle retirement and the lease reclaim whatever the storm left.
  for (int i = 0; i < 3 * static_cast<int>(cfg.reservation_lease_cycles); ++i) {
    net.tick();
  }
  const auto audit = net.audit_reservations();
  EXPECT_EQ(audit.broken_windows, 0);
  EXPECT_EQ(audit.orphan_entries, 0);
  EXPECT_EQ(net.total_valid_slot_entries(), 0);
  EXPECT_EQ(net.total_active_connections(), 0);
  EXPECT_EQ(net.controller().config_in_flight(), 0u);
}

// The acceptance property: 10k cycles of multi-pair traffic with seeded
// random drops, delays and duplications, then a clean cool-down. The network
// must converge to a state with zero orphaned reservations and balanced
// in-flight accounting.
TEST(ConfigFault, SeededFaultStormConvergesToConsistentState) {
  NocConfig cfg = cfg_fault();
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 16;
  HybridNetwork net(cfg);
  ConfigFaultParams faults;
  faults.drop_prob = 0.03;
  faults.delay_prob = 0.05;
  faults.dup_prob = 0.03;
  faults.max_delay_cycles = 96;
  faults.seed = 7;
  net.enable_config_faults(faults);
  Rng traffic(11);
  PacketId id = 1;
  // Hot pairs: concentrated enough that per-pair frequency crosses the setup
  // threshold every epoch, so circuits keep being built and torn down while
  // the faults fire.
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {net.mesh().node({0, 0}), net.mesh().node({5, 0})},
      {net.mesh().node({0, 1}), net.mesh().node({4, 4})},
      {net.mesh().node({5, 5}), net.mesh().node({1, 2})},
      {net.mesh().node({2, 5}), net.mesh().node({3, 0})},
      {net.mesh().node({0, 5}), net.mesh().node({5, 2})},
      {net.mesh().node({3, 3}), net.mesh().node({0, 3})},
  };
  // Bursty on/off phases (512 on, 1024 off, staggered per pair): connections
  // idle-retire during the off phase and re-establish in the next burst, so
  // setups, acks and teardowns keep flowing for the faults to hit.
  auto offer = [&](int cycle) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (((static_cast<size_t>(cycle) >> 9) + i) % 3 != 0) continue;
      if (traffic.bernoulli(0.25)) {
        net.ni(pairs[i].first)
            .send(make_data(id++, pairs[i].first, pairs[i].second), net.now());
      }
    }
  };
  for (int cycle = 0; cycle < 10000; ++cycle) {
    // Two dynamic resizes land mid-storm, racing whatever is in flight.
    if (cycle == 3000 || cycle == 7000) net.controller().request_resize();
    offer(cycle);
    net.tick();
  }
  EXPECT_GT(net.faults_dropped(), 0u);
  EXPECT_GT(net.faults_delayed(), 0u);
  EXPECT_GT(net.faults_duplicated(), 0u);
  EXPECT_GE(net.controller().table_generation(), 2u);
  net.disable_config_faults();
  // Clean traffic keeps live windows refreshed while timeouts and the lease
  // mop up what the storm orphaned.
  for (int cycle = 0; cycle < 6000; ++cycle) {
    offer(cycle);
    net.tick();
  }
  net.set_policy_frozen(true);
  for (int i = 0; i < 60000 && !net.quiescent(); ++i) net.tick();
  ASSERT_TRUE(net.quiescent());
  for (int i = 0; i < 3 * static_cast<int>(cfg.reservation_lease_cycles); ++i) {
    net.tick();
  }
  const auto audit = net.audit_reservations();
  EXPECT_EQ(audit.broken_windows, 0);
  EXPECT_EQ(audit.orphan_entries, 0);
  EXPECT_EQ(net.total_valid_slot_entries(), 0);
  EXPECT_EQ(net.total_active_connections(), 0);
  EXPECT_EQ(net.controller().cs_in_flight(), 0u);
  EXPECT_EQ(net.controller().config_in_flight(), 0u);
}

}  // namespace
}  // namespace hybridnoc
