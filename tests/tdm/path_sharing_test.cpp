// Circuit-switched path sharing (Section III-A): hitchhiker-sharing,
// vicinity-sharing, their combination, contention bounces, and the 2-bit
// failure counter escalation to a dedicated path.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {
namespace {

NocConfig sharing_cfg(bool hitchhiker, bool vicinity) {
  NocConfig c = NocConfig::hybrid_tdm_vc4(6);
  c.slot_table_size = 16;
  c.path_freq_threshold = 4;
  c.policy_epoch_cycles = 512;
  c.hitchhiker_sharing = hitchhiker;
  c.vicinity_sharing = vicinity;
  return c;
}

PacketPtr make_data(PacketId id, NodeId src, NodeId dst) {
  auto p = std::make_shared<Packet>();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->num_flits = 5;
  return p;
}

void establish(HybridNetwork& net, NodeId src, NodeId dst, PacketId& next_id,
               int max_cycles = 5000) {
  for (int i = 0; i < max_cycles; ++i) {
    if (net.now() % 25 == 0) {
      net.ni(src).send(make_data(next_id++, src, dst), net.now());
    }
    net.tick();
    if (net.hybrid_ni(src).has_connection(dst)) return;
  }
  FAIL() << "no connection formed";
}

/// Send a few packets over an established circuit so intermediate nodes see
/// circuit traffic and activate their provisional DLT entries.
void warm_circuit(HybridNetwork& net, NodeId src, NodeId dst, PacketId& next_id) {
  for (int i = 0; i < 5; ++i) {
    net.ni(src).send(make_data(next_id++, src, dst), net.now());
    for (int t = 0; t < 40; ++t) net.tick();
  }
}

void drain(Network& net, int max_cycles = 30000) {
  net.set_policy_frozen(true);
  for (int i = 0; i < max_cycles && !net.quiescent(); ++i) net.tick();
  ASSERT_TRUE(net.quiescent());
}

TEST(PathSharing, SetupPopulatesIntermediateDlts) {
  HybridNetwork net(sharing_cfg(true, false));
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  establish(net, src, dst, id);
  warm_circuit(net, src, dst, id);
  // Every intermediate node on the row-0 path observed the connection.
  for (int x = 1; x <= 4; ++x) {
    const auto& dlt = net.hybrid_ni(net.mesh().node({x, 0})).dlt();
    const auto e = dlt.find(dst);
    ASSERT_TRUE(e.has_value()) << "no DLT entry at column " << x;
    EXPECT_EQ(e->in, Port::West);
    EXPECT_EQ(e->out, Port::East);
  }
  // Endpoints do not hitchhike their own path.
  EXPECT_FALSE(net.hybrid_ni(src).dlt().find(dst).has_value());
  drain(net);
}

TEST(PathSharing, HitchhikerRidesExistingCircuit) {
  HybridNetwork net(sharing_cfg(true, false));
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  const NodeId hiker = net.mesh().node({2, 0});
  establish(net, src, dst, id);
  warm_circuit(net, src, dst, id);

  std::uint64_t delivered_cs = 0;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle) {
    if (p->src == hiker && p->switching == Switching::Circuit) ++delivered_cs;
  });
  // The origin is quiet; the hiker's messages share the idle circuit.
  for (int i = 0; i < 30; ++i) {
    net.ni(hiker).send(make_data(id++, hiker, dst), net.now());
    for (int t = 0; t < 40; ++t) net.tick();
  }
  EXPECT_GT(net.ni(hiker).counters()[NiCounter::HitchhikePackets], 0u);
  EXPECT_GT(delivered_cs, 10u);
  // Sharing did not require a new setup from the hiker.
  EXPECT_EQ(net.ni(hiker).counters()[NiCounter::SetupsSent], 0u);
  drain(net);
}

TEST(PathSharing, ContentionBouncesToPacketSwitched) {
  HybridNetwork net(sharing_cfg(true, false));
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  const NodeId hiker = net.mesh().node({2, 0});
  establish(net, src, dst, id);

  std::map<PacketId, bool> outstanding;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle) {
    outstanding.erase(p->payload);
  });
  // The origin saturates its circuit (a packet every few cycles occupies
  // every slot occurrence); the hiker keeps trying and must bounce.
  std::uint64_t key = 1;
  for (int cycle = 0; cycle < 6000; ++cycle) {
    if (cycle % 4 == 0) {
      auto p = make_data(id++, src, dst);
      p->payload = key;
      outstanding[key++] = true;
      net.ni(src).send(p, net.now());
    }
    if (cycle % 16 == 0) {
      auto p = make_data(id++, hiker, dst);
      p->payload = key;
      outstanding[key++] = true;
      net.ni(hiker).send(p, net.now());
    }
    net.tick();
  }
  drain(net);
  // Contention occurred, yet nothing was lost: bounced messages were
  // re-sent packet-switched (Section III-A1).
  EXPECT_GT(net.ni_counters()[NiCounter::HitchhikeBounces], 0u);
  EXPECT_TRUE(outstanding.empty());
}

TEST(PathSharing, SaturatedCounterEscalatesToDedicatedPath) {
  HybridNetwork net(sharing_cfg(true, false));
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  const NodeId hiker = net.mesh().node({2, 0});
  establish(net, src, dst, id);
  // Saturate the origin's circuit so the hiker's sharing keeps failing.
  for (int cycle = 0; cycle < 20000; ++cycle) {
    if (cycle % 4 == 0) net.ni(src).send(make_data(id++, src, dst), net.now());
    if (cycle % 40 == 0) net.ni(hiker).send(make_data(id++, hiker, dst), net.now());
    net.tick();
    if (net.hybrid_ni(hiker).has_connection(dst)) break;
  }
  // After two consecutive failures ('10') the hiker requested its own path.
  EXPECT_GE(net.ni_counters()[NiCounter::HitchhikeBounces], 2u);
  EXPECT_GE(net.ni(hiker).counters()[NiCounter::SetupsSent], 1u);
  drain(net);
}

TEST(PathSharing, VicinityHopsOffAtNeighbor) {
  HybridNetwork net(sharing_cfg(false, true));
  PacketId id = 1;
  const NodeId src = 0;
  const NodeId conn_dst = net.mesh().node({5, 0});
  const NodeId vic_dst = net.mesh().node({5, 1});  // adjacent to conn_dst
  establish(net, src, conn_dst, id);

  std::uint64_t delivered_at_final = 0;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle) {
    if (p->final_dst == vic_dst && p->dst == vic_dst) ++delivered_at_final;
  });
  for (int i = 0; i < 25; ++i) {
    net.ni(src).send(make_data(id++, src, vic_dst), net.now());
    for (int t = 0; t < 60; ++t) net.tick();
  }
  EXPECT_GT(net.ni(src).counters()[NiCounter::VicinityPackets], 0u);
  EXPECT_GT(net.ni(conn_dst).counters()[NiCounter::VicinityHopoffs], 0u);
  EXPECT_GT(delivered_at_final, 10u);
  drain(net);
}

TEST(PathSharing, VicinityReservationsUseFiveSlots) {
  // Table I: a circuit-switched packet takes 5 flits (one extra header slot)
  // when vicinity-sharing is applied.
  NocConfig cfg = sharing_cfg(false, true);
  EXPECT_EQ(cfg.reservation_duration(), 5);
  HybridNetwork net(cfg);
  PacketId id = 1;
  const NodeId src = 0, dst = net.mesh().node({5, 0});
  establish(net, src, dst, id);
  // Source router holds exactly one 5-slot reservation on the local input.
  int local_valid = 0;
  for (int s = 0; s < 16; ++s) {
    if (net.hybrid_router(src).slots().lookup_slot(s, Port::Local)) ++local_valid;
  }
  EXPECT_EQ(local_valid, 5);
  drain(net);
}

TEST(PathSharing, CombinedHitchhikeAndVicinity) {
  HybridNetwork net(sharing_cfg(true, true));
  PacketId id = 1;
  const NodeId src = 0;
  const NodeId conn_dst = net.mesh().node({5, 0});
  const NodeId hiker = net.mesh().node({2, 0});
  const NodeId vic_dst = net.mesh().node({5, 1});
  establish(net, src, conn_dst, id);
  warm_circuit(net, src, conn_dst, id);

  std::uint64_t delivered = 0;
  net.set_deliver_handler([&](const PacketPtr& p, Cycle) {
    if (p->src != src && p->final_dst == vic_dst) ++delivered;
  });
  // The hiker hops on at (2,0) and its messages hop off at (5,0) for (5,1).
  for (int i = 0; i < 25; ++i) {
    net.ni(hiker).send(make_data(id++, hiker, vic_dst), net.now());
    for (int t = 0; t < 60; ++t) net.tick();
  }
  EXPECT_GT(net.ni(hiker).counters()[NiCounter::HitchhikePackets], 0u);
  EXPECT_GT(net.ni(hiker).counters()[NiCounter::VicinityPackets], 0u);
  EXPECT_GT(delivered, 10u);
  drain(net);
}

TEST(PathSharing, ConservationWithAllSharingUnderRandomLoad) {
  NocConfig cfg = sharing_cfg(true, true);
  HybridNetwork net(cfg);
  Rng rng(17);
  PacketId id = 1;
  std::uint64_t injected = 0, delivered = 0;
  net.set_deliver_handler([&](const PacketPtr&, Cycle) { ++delivered; });
  // Skewed traffic (a few hot columns) to exercise sharing heavily.
  for (int cycle = 0; cycle < 12000; ++cycle) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (!rng.bernoulli(0.02)) continue;
      const int dx = rng.bernoulli(0.7) ? 5 : static_cast<int>(rng.uniform_int(6));
      const NodeId d = net.mesh().node({dx, static_cast<int>(rng.uniform_int(6))});
      if (d == s) continue;
      net.ni(s).send(make_data(id++, s, d), net.now());
      ++injected;
    }
    net.tick();
  }
  drain(net, 60000);
  EXPECT_EQ(delivered, injected);
}

TEST(PathSharing, DltEnergyIsAccounted) {
  HybridNetwork net(sharing_cfg(true, true));
  PacketId id = 1;
  establish(net, 0, net.mesh().node({5, 0}), id);
  const auto e = net.total_energy();
  EXPECT_GT(e.dlt_active_cycles, 0u);
  EXPECT_GT(e.dlt_accesses, 0u);
  drain(net);
}

}  // namespace
}  // namespace hybridnoc
