// End-to-end tests of the TDM hybrid-switched network: path setup over the
// packet-switched fabric, slot-timed circuit transmission, time-slot
// stealing, teardown, dynamic slot sizing, and conservation under load.
#include "tdm/hybrid_network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace hybridnoc {
namespace {

NocConfig test_cfg(int k = 6) {
  NocConfig c = NocConfig::hybrid_tdm_vc4(k);
  c.slot_table_size = 16;  // short slot waits keep tests fast & predictable
  c.path_freq_threshold = 4;
  c.policy_epoch_cycles = 512;
  return c;
}

PacketPtr make_data(PacketId id, NodeId src, NodeId dst, int flits = 5) {
  auto p = std::make_shared<Packet>();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->num_flits = flits;
  return p;
}

/// Drive a hot src->dst pair until a circuit is established.
void establish(HybridNetwork& net, NodeId src, NodeId dst, PacketId& next_id,
               int max_cycles = 4000) {
  for (int i = 0; i < max_cycles; ++i) {
    if (net.now() % 25 == 0) {
      net.ni(src).send(make_data(next_id++, src, dst), net.now());
    }
    net.tick();
    if (net.hybrid_ni(src).has_connection(dst)) return;
  }
  FAIL() << "no connection formed from " << src << " to " << dst;
}

void drain(Network& net, int max_cycles = 30000) {
  net.set_policy_frozen(true);
  for (int i = 0; i < max_cycles && !net.quiescent(); ++i) net.tick();
  ASSERT_TRUE(net.quiescent()) << "network failed to drain";
}

TEST(HybridNetwork, PathSetupEstablishesConnection) {
  HybridNetwork net(test_cfg());
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  establish(net, src, dst, id);
  EXPECT_TRUE(net.hybrid_ni(src).has_connection(dst));
  EXPECT_GE(net.ni(src).counters()[NiCounter::SetupsSent], 1u);
  EXPECT_EQ(net.controller().cs_in_flight(), 0u);
  // Slots are reserved along the whole row-0 path, including endpoints.
  for (int x = 0; x <= 5; ++x) {
    EXPECT_GT(net.hybrid_router(net.mesh().node({x, 0})).slots().valid_entries(), 0)
        << "no reservation at column " << x;
  }
  drain(net);
}

TEST(HybridNetwork, CircuitFlitsAreUsedAfterSetup) {
  HybridNetwork net(test_cfg());
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  establish(net, src, dst, id);
  const auto cs_before = net.ni_counters()[NiCounter::CsDataFlits];
  std::uint64_t delivered = 0;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle) {
    if (p->switching == Switching::Circuit) ++delivered;
  });
  for (int i = 0; i < 20; ++i) {
    net.ni(src).send(make_data(id++, src, dst), net.now());
    for (int t = 0; t < 40; ++t) net.tick();
  }
  EXPECT_GT(net.ni_counters()[NiCounter::CsDataFlits], cs_before);
  EXPECT_GT(delivered, 10u);  // most packets ride the circuit
  drain(net);
}

TEST(HybridNetwork, CircuitLatencyIsBoundedBySlotWait) {
  HybridNetwork net(test_cfg());
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  const int hops = 5;
  establish(net, src, dst, id);
  std::vector<Cycle> latencies;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle at) {
    if (p->switching == Switching::Circuit) latencies.push_back(at - p->created);
  });
  for (int i = 0; i < 30; ++i) {
    net.ni(src).send(make_data(id++, src, dst), net.now());
    for (int t = 0; t < 50; ++t) net.tick();
  }
  ASSERT_GT(latencies.size(), 10u);
  // Circuit latency = slot wait (< S + 3) + 2 per hop + ejection + flits.
  const Cycle bound = 16 + 3 + 2 * hops + 2 + 3;
  for (const Cycle l : latencies) EXPECT_LE(l, bound);
  drain(net);
}

TEST(HybridNetwork, ConservationUnderUniformRandomLoad) {
  NocConfig cfg = test_cfg(4);
  HybridNetwork net(cfg);
  std::map<PacketId, NodeId> outstanding;
  bool misdelivery = false;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle) {
    auto it = outstanding.find(p->id);
    if (it == outstanding.end() || it->second != p->final_dst) {
      misdelivery = true;
      return;
    }
    outstanding.erase(it);
  });
  Rng rng(42);
  PacketId id = 1;
  std::uint64_t injected = 0;
  for (int cycle = 0; cycle < 8000; ++cycle) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (!rng.bernoulli(0.03)) continue;
      const NodeId d = static_cast<NodeId>(
          rng.uniform_int(static_cast<std::uint64_t>(net.num_nodes())));
      if (d == s) continue;
      net.ni(s).send(make_data(id++, s, d), net.now());
      outstanding[id - 1] = d;
      ++injected;
    }
    net.tick();
  }
  EXPECT_GT(injected, 100u);
  drain(net);
  EXPECT_FALSE(misdelivery);
  EXPECT_TRUE(outstanding.empty());
  EXPECT_EQ(net.controller().cs_in_flight(), 0u);
  EXPECT_EQ(net.controller().config_in_flight(), 0u);
}

TEST(HybridNetwork, TimeSlotStealingLowersPacketLatencyOnReservedLinks) {
  auto run = [](bool stealing) {
    NocConfig cfg = test_cfg();
    cfg.time_slot_stealing = stealing;
    HybridNetwork net(cfg);
    PacketId id = 1;
    const NodeId src = 0, dst = net.mesh().node({5, 0});
    establish(net, src, dst, id);
    // Keep the circuit alive but idle; run packet-switched traffic along the
    // same row through the reserved outputs.
    StatAccumulator lat;
    net.set_deliver_handler([&](const PacketPtr& p, Cycle at) {
      if (p->switching == Switching::Packet && !p->is_config())
        lat.add(static_cast<double>(at - p->created));
    });
    const NodeId s2 = net.mesh().node({1, 0});
    const NodeId d2 = net.mesh().node({4, 0});
    for (int i = 0; i < 200; ++i) {
      auto p = make_data(id++, s2, d2);
      p->cs_eligible = false;
      net.ni(s2).send(p, net.now());
      for (int t = 0; t < 10; ++t) net.tick();
    }
    return std::pair<double, std::uint64_t>(
        lat.mean(), net.router_counters()[RouterCounter::PsSteals]);
  };
  const auto [lat_on, steals_on] = run(true);
  const auto [lat_off, steals_off] = run(false);
  EXPECT_GT(steals_on, 0u);
  EXPECT_EQ(steals_off, 0u);
  EXPECT_LE(lat_on, lat_off);
}

TEST(HybridNetwork, IdleConnectionIsTornDownAndSlotsFreed) {
  NocConfig cfg = test_cfg();
  cfg.path_idle_timeout = 2048;
  HybridNetwork net(cfg);
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  establish(net, src, dst, id);
  int reserved = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n)
    reserved += net.hybrid_router(n).slots().valid_entries();
  ASSERT_GT(reserved, 0);
  // Silence: idle timeout then teardown walks the path.
  for (int i = 0; i < 12000; ++i) net.tick();
  EXPECT_FALSE(net.hybrid_ni(src).has_connection(dst));
  int reserved_after = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n)
    reserved_after += net.hybrid_router(n).slots().valid_entries();
  EXPECT_EQ(reserved_after, 0);
  EXPECT_EQ(net.controller().config_in_flight(), 0u);
}

TEST(HybridNetwork, SetupConflictsRetryWithDifferentSlots) {
  // A tiny active region (8 slots, duration 4) makes collisions between
  // many paths through shared links inevitable: the resend mechanism with a
  // different slot id must still converge to some established circuits.
  NocConfig cfg = test_cfg();
  cfg.slot_table_size = 8;
  cfg.initial_active_slots = 8;
  HybridNetwork net(cfg);
  PacketId id = 1;
  Rng rng(7);
  // All sources converge on one destination: their circuits share the
  // column-5 links, and 8 slots hold at most two 4-slot windows per output,
  // so some setups must fail and re-send with different slot ids.
  const NodeId hot = net.mesh().node({5, 2});
  for (int cycle = 0; cycle < 20000; ++cycle) {
    for (int y = 0; y < 6; ++y) {
      if (!rng.bernoulli(0.05)) continue;
      const NodeId s = net.mesh().node({0, y});
      net.ni(s).send(make_data(id++, s, hot), net.now());
    }
    net.tick();
  }
  EXPECT_GT(net.ni_counters()[NiCounter::SetupFailures], 0u);
  EXPECT_GT(net.ni_counters()[NiCounter::SetupsSent], 6u);
  EXPECT_GT(net.total_active_connections(), 0);
  drain(net);
}

TEST(HybridNetwork, DynamicSlotSizingGrowsUnderFailurePressure) {
  NocConfig cfg = test_cfg();
  cfg.dynamic_slot_sizing = true;
  cfg.slot_table_size = 64;
  cfg.initial_active_slots = 8;
  cfg.resize_failure_threshold = 4;
  cfg.max_setup_retries = 1;
  HybridNetwork net(cfg);
  EXPECT_EQ(net.controller().active_slots(), 8);
  PacketId id = 1;
  Rng rng(3);
  // Hot all-to-column-5 traffic: 8 slots cannot hold everything.
  for (int cycle = 0; cycle < 30000; ++cycle) {
    for (int y = 0; y < 6; ++y) {
      if (!rng.bernoulli(0.08)) continue;
      const NodeId s = net.mesh().node({static_cast<int>(rng.uniform_int(3)), y});
      const NodeId d = net.mesh().node({5, static_cast<int>(rng.uniform_int(6))});
      if (s == d) continue;
      net.ni(s).send(make_data(id++, s, d), net.now());
    }
    net.tick();
  }
  EXPECT_GE(net.controller().resizes(), 1);
  EXPECT_GT(net.controller().active_slots(), 8);
  // Router tables follow the controller's size.
  EXPECT_EQ(net.hybrid_router(0).slots().active_size(),
            net.controller().active_slots());
  drain(net);
}

TEST(HybridNetwork, ConfigTrafficIsSmallFraction) {
  // Section II-B: "configuration messages correspond to less than 1% of
  // total traffic" for stable workloads.
  HybridNetwork net(test_cfg());
  PacketId id = 1;
  Rng rng(11);
  // A handful of hot pairs, long-running.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 6; ++i) {
    pairs.emplace_back(net.mesh().node({i % 3, i}), net.mesh().node({5, (i + 2) % 6}));
  }
  for (int cycle = 0; cycle < 60000; ++cycle) {
    for (const auto& [s, d] : pairs) {
      if (rng.bernoulli(0.08)) net.ni(s).send(make_data(id++, s, d), net.now());
    }
    net.tick();
  }
  const NiCounters c = net.ni_counters();
  const double config = static_cast<double>(c[NiCounter::ConfigFlits]);
  const double total = config + static_cast<double>(c[NiCounter::PsDataFlits]) +
                       static_cast<double>(c[NiCounter::CsDataFlits]);
  EXPECT_LT(config / total, 0.01);
  drain(net);
}

TEST(HybridNetwork, DeterministicAcrossRuns) {
  auto run = [] {
    HybridNetwork net(test_cfg(4));
    std::vector<std::pair<PacketId, Cycle>> log;
    net.set_deliver_handler(
        [&](const PacketPtr& p, Cycle at) { log.emplace_back(p->id, at); });
    Rng rng(99);
    PacketId id = 1;
    for (int cycle = 0; cycle < 4000; ++cycle) {
      for (NodeId s = 0; s < net.num_nodes(); ++s) {
        if (rng.bernoulli(0.04)) {
          const NodeId d = static_cast<NodeId>(
              rng.uniform_int(static_cast<std::uint64_t>(net.num_nodes())));
          if (d != s) net.ni(s).send(make_data(id++, s, d), net.now());
        }
      }
      net.tick();
    }
    return log;
  };
  EXPECT_EQ(run(), run());
}

TEST(HybridNetwork, StealingDisabledStillConserves) {
  NocConfig cfg = test_cfg(4);
  cfg.time_slot_stealing = false;
  HybridNetwork net(cfg);
  Rng rng(21);
  PacketId id = 1;
  std::uint64_t injected = 0, delivered = 0;
  net.set_deliver_handler([&](const PacketPtr&, Cycle) { ++delivered; });
  for (int cycle = 0; cycle < 6000; ++cycle) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (!rng.bernoulli(0.02)) continue;
      const NodeId d = static_cast<NodeId>(
          rng.uniform_int(static_cast<std::uint64_t>(net.num_nodes())));
      if (d == s) continue;
      net.ni(s).send(make_data(id++, s, d), net.now());
      ++injected;
    }
    net.tick();
  }
  drain(net);
  EXPECT_EQ(delivered, injected);
}

TEST(HybridNetwork, HybridEnergyIncludesCsComponents) {
  HybridNetwork net(test_cfg());
  PacketId id = 1;
  establish(net, 0, net.mesh().node({5, 0}), id);
  const auto e = net.total_energy();
  EXPECT_GT(e.slot_table_reads, 0u);
  EXPECT_GT(e.slot_table_writes, 0u);
  EXPECT_GT(e.slot_entry_active_cycles, 0u);
  EXPECT_GT(e.cs_misc_active_cycles, 0u);
  drain(net);
}

}  // namespace
}  // namespace hybridnoc
