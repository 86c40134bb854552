// End-to-end packet-switched network tests on small meshes.
#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "expect_input_error.hpp"

namespace hybridnoc {
namespace {

PacketPtr make_data(PacketId id, NodeId src, NodeId dst, int flits) {
  auto p = std::make_shared<Packet>();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->num_flits = flits;
  return p;
}

/// Zero-load packet-switched latency: 5 cycles per hop (4-stage router +
/// link) + NI injection/ejection overhead + serialization.
Cycle expected_zero_load(int hops, int flits) {
  return static_cast<Cycle>(5 * hops + 6 + flits);
}

// The config is checked before the network builds a channel or starts a
// worker thread, so the throw leaves nothing behind.
TEST(Network, InvalidConfigThrowsBeforeBuilding) {
  NocConfig cfg = NocConfig::packet_vc4(1);
  cfg.tick_threads = 2;
  EXPECT_INPUT_ERROR({ Network net(cfg); }, "mesh radix");
}

TEST(Network, SingleZeroLoadPacketLatencyMatchesModel) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  Network net(cfg);
  struct Delivery {
    PacketPtr pkt;
    Cycle at;
  };
  std::vector<Delivery> delivered;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle at) {
    delivered.push_back({p, at});
  });

  const NodeId src = 0, dst = net.mesh().node({3, 2});
  auto pkt = make_data(1, src, dst, 5);
  net.ni(src).send(pkt, net.now());
  for (int i = 0; i < 100; ++i) net.tick();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].pkt->id, 1u);
  const int hops = net.mesh().hop_distance(src, dst);
  EXPECT_EQ(delivered[0].at - delivered[0].pkt->created,
            expected_zero_load(hops, 5));
}

TEST(Network, ZeroLoadLatencyScalesWithDistance) {
  NocConfig cfg = NocConfig::packet_vc4(6);
  Network net(cfg);
  std::map<PacketId, Cycle> arrival;
  net.set_deliver_handler(
      [&](const PacketPtr& p, Cycle at) { arrival[p->id] = at; });

  // One packet at a time so there is no contention.
  struct Case {
    NodeId src, dst;
    PacketId id;
  };
  std::vector<Case> cases = {{0, 1, 1}, {0, 7, 2}, {0, 35, 3}, {14, 21, 4}};
  for (const auto& c : cases) {
    const Cycle start = net.now();
    auto pkt = make_data(c.id, c.src, c.dst, 5);
    net.ni(c.src).send(pkt, start);
    for (int i = 0; i < 120; ++i) net.tick();
    ASSERT_TRUE(arrival.count(c.id));
    const int hops = net.mesh().hop_distance(c.src, c.dst);
    EXPECT_EQ(arrival[c.id] - start, expected_zero_load(hops, 5))
        << "src=" << c.src << " dst=" << c.dst;
  }
}

TEST(Network, SingleFlitPacketLatency) {
  Network net(NocConfig::packet_vc4(4));
  Cycle delivered_at = 0;
  net.set_deliver_handler([&](const PacketPtr&, Cycle at) { delivered_at = at; });
  const NodeId dst = net.mesh().node({2, 0});
  net.ni(0).send(make_data(1, 0, dst, 1), 0);
  for (int i = 0; i < 60; ++i) net.tick();
  EXPECT_EQ(delivered_at, expected_zero_load(2, 1));
}

TEST(Network, UniformRandomConservation) {
  // Inject Bernoulli uniform-random traffic for a while, then drain: every
  // packet injected must be delivered exactly once, at the right place.
  NocConfig cfg = NocConfig::packet_vc4(4);
  Network net(cfg);
  std::map<PacketId, NodeId> expected_dst;
  std::uint64_t delivered = 0;
  bool misdelivery = false;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle) {
    ++delivered;
    auto it = expected_dst.find(p->id);
    if (it == expected_dst.end() || it->second != p->final_dst) misdelivery = true;
    expected_dst.erase(it);
  });

  Rng rng(123);
  PacketId next_id = 1;
  const int n = net.num_nodes();
  std::uint64_t injected = 0;
  for (int cycle = 0; cycle < 3000; ++cycle) {
    for (NodeId s = 0; s < n; ++s) {
      if (!rng.bernoulli(0.02)) continue;
      NodeId d = static_cast<NodeId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      if (d == s) continue;
      auto p = make_data(next_id, s, d, 5);
      expected_dst[next_id++] = d;
      net.ni(s).send(p, net.now());
      ++injected;
    }
    net.tick();
  }
  // Drain.
  for (int i = 0; i < 5000 && !net.quiescent(); ++i) net.tick();
  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(delivered, injected);
  EXPECT_FALSE(misdelivery);
  EXPECT_TRUE(expected_dst.empty());
  EXPECT_EQ(net.ni_counters()[NiCounter::DataPacketsDelivered], injected);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [] {
    Network net(NocConfig::packet_vc4(4));
    std::vector<std::pair<PacketId, Cycle>> log;
    net.set_deliver_handler(
        [&](const PacketPtr& p, Cycle at) { log.emplace_back(p->id, at); });
    Rng rng(77);
    PacketId id = 1;
    for (int cycle = 0; cycle < 1000; ++cycle) {
      for (NodeId s = 0; s < net.num_nodes(); ++s) {
        if (rng.bernoulli(0.05)) {
          NodeId d = static_cast<NodeId>(
              rng.uniform_int(static_cast<std::uint64_t>(net.num_nodes())));
          if (d != s) net.ni(s).send(make_data(id++, s, d, 5), net.now());
        }
      }
      net.tick();
    }
    return log;
  };
  EXPECT_EQ(run(), run());
}

TEST(Network, HighLoadDoesNotViolateInvariants) {
  // Saturating load: HN_CHECKs (credit overflow, buffer overflow, crossbar
  // conflicts) must hold, and the network must drain afterwards.
  Network net(NocConfig::packet_vc4(4));
  Rng rng(5);
  PacketId id = 1;
  for (int cycle = 0; cycle < 2000; ++cycle) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (net.ni(s).inject_queue_depth() < 8 && rng.bernoulli(0.5)) {
        NodeId d = static_cast<NodeId>(
            rng.uniform_int(static_cast<std::uint64_t>(net.num_nodes())));
        if (d != s) net.ni(s).send(make_data(id++, s, d, 5), net.now());
      }
    }
    net.tick();
  }
  for (int i = 0; i < 20000 && !net.quiescent(); ++i) net.tick();
  EXPECT_TRUE(net.quiescent());
  const NiCounters c = net.ni_counters();
  EXPECT_EQ(c[NiCounter::DataPacketsDelivered], c[NiCounter::DataPacketsSent]);
}

TEST(Network, EnergyCountersAccumulate) {
  Network net(NocConfig::packet_vc4(4));
  net.ni(0).send(make_data(1, 0, 15, 5), 0);
  for (int i = 0; i < 100; ++i) net.tick();
  const auto e = net.total_energy();
  EXPECT_EQ(e.buffer_writes, e.buffer_reads);
  EXPECT_GT(e.buffer_writes, 0u);
  // 6 hops x 5 flits = 30 link traversals on the minimal path.
  EXPECT_EQ(e.link_flits, 30u);
  EXPECT_GT(e.vc_active_cycles, 0u);
  EXPECT_EQ(e.cycles, 100u * 16u);  // 16 routers
}

TEST(Network, VcGatingConvergesToMinimumWhenIdle) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.vc_power_gating = true;
  Network net(cfg);
  for (int i = 0; i < 6000; ++i) net.tick();
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_EQ(net.router(n).announced_active_vcs(), cfg.min_active_vcs);
  }
}

TEST(Network, VcGatingReactivatesUnderLoad) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.vc_power_gating = true;
  Network net(cfg);
  // Let it gate down first.
  for (int i = 0; i < 6000; ++i) net.tick();
  // Then saturate.
  Rng rng(9);
  PacketId id = 1;
  for (int cycle = 0; cycle < 4000; ++cycle) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (net.ni(s).inject_queue_depth() < 4 && rng.bernoulli(0.4)) {
        NodeId d = static_cast<NodeId>(
            rng.uniform_int(static_cast<std::uint64_t>(net.num_nodes())));
        if (d != s) net.ni(s).send(make_data(id++, s, d, 5), net.now());
      }
    }
    net.tick();
  }
  int raised = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n)
    if (net.router(n).announced_active_vcs() > cfg.min_active_vcs) ++raised;
  EXPECT_GT(raised, net.num_nodes() / 2);
  // Still correct under gating churn: drain completely.
  for (int i = 0; i < 30000 && !net.quiescent(); ++i) net.tick();
  EXPECT_TRUE(net.quiescent());
  const NiCounters c = net.ni_counters();
  EXPECT_EQ(c[NiCounter::DataPacketsDelivered], c[NiCounter::DataPacketsSent]);
}

TEST(Network, GatedVcLeaksLessBufferEnergy) {
  NocConfig on = NocConfig::packet_vc4(4);
  on.vc_power_gating = true;
  NocConfig off = NocConfig::packet_vc4(4);
  Network gated(on), plain(off);
  for (int i = 0; i < 6000; ++i) {
    gated.tick();
    plain.tick();
  }
  EXPECT_LT(gated.total_energy().vc_active_cycles,
            plain.total_energy().vc_active_cycles);
}

}  // namespace
}  // namespace hybridnoc
