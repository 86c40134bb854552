// Edge cases of the path-configuration endpoints: retry exhaustion and
// cooldown, supplementary windows (time-division granularity), occupancy
// breadth-over-depth gating, and multi-window teardown accounting.
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

NocConfig cfg_small() {
  NocConfig c = NocConfig::hybrid_tdm_vc4(6);
  c.slot_table_size = 16;
  c.path_freq_threshold = 4;
  c.policy_epoch_cycles = 512;
  return c;
}

TEST(ProtocolEdge, SupplementaryWindowsGrowWithDemand) {
  NocConfig cfg = cfg_small();
  cfg.slot_table_size = 64;
  cfg.max_windows_per_pair = 6;
  HybridNetwork net(cfg);
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  PacketId id = 1;
  // Demand far beyond one window's bandwidth (4 flits per 64 cycles).
  // Slack-tolerant messages (like GPU data) accept any slot wait, so the
  // windows fill up and the source requests supplements.
  for (int cycle = 0; cycle < 30000; ++cycle) {
    if (cycle % 6 == 0) {
      auto p = make_data(id++, src, dst);
      p->slack = 4096;
      net.ni(src).send(std::move(p), net.now());
    }
    net.tick();
  }
  ASSERT_TRUE(net.hybrid_ni(src).has_connection(dst));
  // Multiple windows == more local-input slot reservations than one
  // duration's worth.
  int local_valid = 0;
  for (int s = 0; s < 64; ++s) {
    if (net.hybrid_router(src).slots().lookup_slot(s, Port::Local)) ++local_valid;
  }
  EXPECT_GT(local_valid, cfg.reservation_duration());
  EXPECT_LE(local_valid, cfg.max_windows_per_pair * cfg.reservation_duration());
  EXPECT_GE(net.ni(src).counters()[NiCounter::SetupsSent], 2u);
}

TEST(ProtocolEdge, WindowCountRespectsCap) {
  NocConfig cfg = cfg_small();
  cfg.slot_table_size = 128;
  cfg.initial_active_slots = 16;
  cfg.max_windows_per_pair = 2;
  HybridNetwork net(cfg);
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  PacketId id = 1;
  for (int cycle = 0; cycle < 30000; ++cycle) {
    if (cycle % 4 == 0) net.ni(src).send(make_data(id++, src, dst), net.now());
    net.tick();
  }
  int local_valid = 0;
  for (int s = 0; s < 128; ++s) {
    if (net.hybrid_router(src).slots().lookup_slot(s, Port::Local)) ++local_valid;
  }
  EXPECT_LE(local_valid, 2 * cfg.reservation_duration());
}

TEST(ProtocolEdge, RetryExhaustionBacksOffWithCooldown) {
  // An 8-slot table with 4-slot reservations holds two windows per output;
  // a third pair through the same links must fail, retry max_setup_retries
  // times, then go quiet (cooldown) instead of spamming setups forever.
  NocConfig cfg = cfg_small();
  cfg.slot_table_size = 8;
  cfg.initial_active_slots = 8;
  cfg.max_setup_retries = 2;
  cfg.max_windows_per_pair = 1;
  HybridNetwork net(cfg);
  PacketId id = 1;
  const NodeId dst = net.mesh().node({5, 2});
  // Six sources converge on one node; only a couple of circuits fit the
  // final links.
  for (int cycle = 0; cycle < 40000; ++cycle) {
    for (int y = 0; y < 6; ++y) {
      if (cycle % 24 == y) {
        const NodeId s = net.mesh().node({0, y});
        net.ni(s).send(make_data(id++, s, dst), net.now());
      }
    }
    net.tick();
  }
  EXPECT_GT(net.ni_counters()[NiCounter::SetupFailures], 0u);
  // Setup traffic stays bounded: every failed attempt costs at most
  // (1 + retries) setups per cooldown period per source.
  const double setups_per_kcycle =
      static_cast<double>(net.ni_counters()[NiCounter::SetupsSent]) / 40.0;
  EXPECT_LT(setups_per_kcycle, 10.0);
  net.set_policy_frozen(true);
  for (int i = 0; i < 30000 && !net.quiescent(); ++i) net.tick();
  EXPECT_TRUE(net.quiescent());
}

TEST(ProtocolEdge, MultiWindowTeardownFreesEverySlot) {
  NocConfig cfg = cfg_small();
  cfg.slot_table_size = 64;
  cfg.path_idle_timeout = 2048;
  cfg.max_windows_per_pair = 4;
  HybridNetwork net(cfg);
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  PacketId id = 1;
  for (int cycle = 0; cycle < 15000; ++cycle) {
    if (cycle % 6 == 0) net.ni(src).send(make_data(id++, src, dst), net.now());
    net.tick();
  }
  int reserved = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n)
    reserved += net.hybrid_router(n).slots().valid_entries();
  ASSERT_GT(reserved, 0);
  // Silence beyond the idle timeout: every window of every connection must
  // be released, across all routers.
  for (int i = 0; i < 15000; ++i) net.tick();
  int after = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n)
    after += net.hybrid_router(n).slots().valid_entries();
  EXPECT_EQ(after, 0);
  EXPECT_EQ(net.controller().config_in_flight(), 0u);
  EXPECT_EQ(net.total_active_connections(), 0);
}

TEST(ProtocolEdge, FrozenPolicySendsNoSetups) {
  HybridNetwork net(cfg_small());
  net.set_policy_frozen(true);
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  for (int cycle = 0; cycle < 5000; ++cycle) {
    if (cycle % 10 == 0) net.ni(src).send(make_data(id++, src, dst), net.now());
    net.tick();
  }
  EXPECT_EQ(net.ni_counters()[NiCounter::SetupsSent], 0u);
  EXPECT_EQ(net.ni_counters()[NiCounter::CsPackets], 0u);
  // Traffic still flows packet-switched.
  EXPECT_GT(net.ni_counters()[NiCounter::DataPacketsDelivered], 400u);
}

TEST(ProtocolEdge, ReservationThresholdLeavesPacketHeadroom) {
  // Even under extreme circuit demand, no router's table exceeds the 90%
  // starvation threshold (Section II-B).
  NocConfig cfg = cfg_small();
  cfg.slot_table_size = 16;
  cfg.max_windows_per_pair = 12;
  HybridNetwork net(cfg);
  Rng rng(3);
  PacketId id = 1;
  for (int cycle = 0; cycle < 30000; ++cycle) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (rng.bernoulli(0.04)) {
        const NodeId d = static_cast<NodeId>(
            rng.uniform_int(static_cast<std::uint64_t>(net.num_nodes())));
        if (d != s) net.ni(s).send(make_data(id++, s, d), net.now());
      }
    }
    net.tick();
  }
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_LE(net.hybrid_router(n).slots().occupancy(), 0.92) << "router " << n;
  }
  net.set_policy_frozen(true);
  for (int i = 0; i < 60000 && !net.quiescent(); ++i) net.tick();
  EXPECT_TRUE(net.quiescent());
}

}  // namespace
}  // namespace hybridnoc
