// The data-plane hardware fault model (src/noc/fault_model.hpp) and the
// end-to-end recovery it forces out of the packet-switched fabric: stateless
// per-traversal corruption, record/replay of fired transients, permanent
// link/router death with reachability and bisection accounting, fault-aware
// detour routing, and the NI-level CRC-squash / ack / retransmit loop.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "noc/fault_model.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"

namespace hybridnoc {
namespace {

// ---------------------------------------------------------------------------
// FaultModel unit
// ---------------------------------------------------------------------------

TEST(FaultModel, TransientHashIsDeterministicPerSeed) {
  FaultModel a(4, 0.01, 99);
  FaultModel b(4, 0.01, 99);
  FaultModel c(4, 0.01, 100);
  std::vector<bool> fa, fb, fc;
  for (int i = 0; i < 5000; ++i) {
    fa.push_back(a.on_traverse(5, Port::East, static_cast<Cycle>(i)));
    fb.push_back(b.on_traverse(5, Port::East, static_cast<Cycle>(i)));
    fc.push_back(c.on_traverse(5, Port::East, static_cast<Cycle>(i)));
  }
  EXPECT_EQ(fa, fb);
  EXPECT_NE(fa, fc);  // seed actually feeds the hash
  EXPECT_GT(a.corrupted_traversals(), 0u);
  EXPECT_EQ(a.corrupted_traversals(), b.corrupted_traversals());
  EXPECT_EQ(a.traversals(5, Port::East), 5000u);
}

TEST(FaultModel, RecordedTransientsReplayWithoutTheHash) {
  FaultModel rec(4, 0.02, 7);
  rec.set_recording(true);
  std::vector<bool> fired;
  for (int i = 0; i < 2000; ++i) {
    fired.push_back(rec.on_traverse(1, Port::South, static_cast<Cycle>(i)));
  }
  ASSERT_GT(rec.fired_transients().size(), 0u);
  ASSERT_EQ(rec.fired_transients().size(), rec.corrupted_traversals());
  for (const auto& e : rec.fired_transients()) {
    EXPECT_EQ(e.kind, FaultKind::Transient);
    EXPECT_EQ(e.node, 1);
    EXPECT_EQ(e.out, Port::South);
    EXPECT_GT(e.occurrence, 0u);
  }

  // Replay keys on (link, occurrence): interleaving traversals of an
  // unrelated link must not shift which of this link's traversals corrupt.
  FaultModel rep(4, 0.0, 1);
  rep.set_transient_replay(rec.fired_transients());
  std::vector<bool> replayed;
  for (int i = 0; i < 2000; ++i) {
    (void)rep.on_traverse(9, Port::West, static_cast<Cycle>(i));
    replayed.push_back(rep.on_traverse(1, Port::South, static_cast<Cycle>(i)));
  }
  EXPECT_EQ(replayed, fired);
  EXPECT_EQ(rep.corrupted_traversals(), rec.corrupted_traversals());
}

TEST(FaultModel, StuckWindowCorruptsWithoutFailingTheLink) {
  FaultModel fm(4, 0.0, 1);
  fm.stick_link(0, Port::South, 50, 10);
  EXPECT_FALSE(fm.on_traverse(0, Port::South, 49));
  EXPECT_TRUE(fm.on_traverse(0, Port::South, 50));
  EXPECT_TRUE(fm.on_traverse(0, Port::South, 59));
  EXPECT_FALSE(fm.on_traverse(0, Port::South, 60));
  // Stuck is transient trouble the end-to-end layer rides out, not a
  // permanent failure routing should detour around.
  EXPECT_FALSE(fm.link_failed(0, Port::South, 55));
  EXPECT_FALSE(fm.any_failed(55));
}

TEST(FaultModel, DeadLinkAndDeadRouterActivateOnSchedule) {
  FaultModel fm(4, 0.0, 1);
  fm.kill_link(1, Port::East, 100);
  fm.kill_router(5, 200);
  EXPECT_FALSE(fm.link_failed(1, Port::East, 99));
  EXPECT_FALSE(fm.any_failed(99));
  EXPECT_TRUE(fm.link_failed(1, Port::East, 100));
  EXPECT_TRUE(fm.any_failed(100));
  EXPECT_FALSE(fm.on_traverse(1, Port::East, 99));
  EXPECT_TRUE(fm.on_traverse(1, Port::East, 100));  // fail-dirty: corrupts

  // A dead router takes every incident directed link with it: its own
  // outputs and its neighbours' links toward it.
  EXPECT_FALSE(fm.node_failed(5, 199));
  EXPECT_TRUE(fm.node_failed(5, 200));
  EXPECT_TRUE(fm.link_failed(5, Port::East, 200));
  EXPECT_TRUE(fm.link_failed(4, Port::East, 200));   // 4 -> 5
  EXPECT_TRUE(fm.link_failed(1, Port::South, 200));  // 1 -> 5
  EXPECT_FALSE(fm.link_failed(4, Port::East, 199));
  EXPECT_EQ(fm.scheduled_events().size(), 2u);
}

TEST(FaultModel, ReachabilityAndDegradationMetrics) {
  FaultModel fm(4, 0.0, 1);
  EXPECT_TRUE(fm.reachable(0, 15, 0));
  EXPECT_EQ(fm.failed_links(0), 0);
  EXPECT_EQ(fm.bisection_links_total(), 8);
  EXPECT_EQ(fm.bisection_links_alive(0), 8);

  // Cut corner node 15 (x=3, y=3) out of the mesh entirely: both inbound
  // and both outbound directed links die at cycle 10.
  fm.kill_link(14, Port::East, 10);
  fm.kill_link(11, Port::South, 10);
  fm.kill_link(15, Port::West, 10);
  fm.kill_link(15, Port::North, 10);
  EXPECT_TRUE(fm.reachable(0, 15, 9));
  EXPECT_FALSE(fm.reachable(0, 15, 10));
  EXPECT_FALSE(fm.reachable(15, 0, 10));
  EXPECT_TRUE(fm.reachable(0, 14, 10));  // the rest of the mesh is intact
  EXPECT_EQ(fm.failed_links(10), 4);

  // None of those links cross the vertical mid-cut (x=1 | x=2); killing one
  // that does is what dents the surviving bisection bandwidth.
  EXPECT_EQ(fm.bisection_links_alive(10), 8);
  fm.kill_link(1, Port::East, 20);  // (1,0) -> (2,0)
  EXPECT_EQ(fm.bisection_links_alive(20), 7);
  EXPECT_EQ(fm.bisection_links_total(), 8);
}

TEST(FaultAwareRouting, DetoursAroundDeadLinkAndReportsCutoff) {
  Mesh mesh(4);
  FaultModel fm(4, 0.0, 1);
  // XY route 0 -> 3 goes East along the top row; kill the first hop.
  fm.kill_link(0, Port::East, 0);
  const Port detour = route_fault_aware(mesh, fm, 0, 3, 0);
  EXPECT_NE(detour, Port::East);
  EXPECT_NE(detour, Port::Local);
  // Off the fault, the XY port is kept: fault-free regions are unchanged.
  EXPECT_EQ(route_fault_aware(mesh, fm, 4, 7, 0), Port::East);
  // A fully cut-off router has no healthy port to offer.
  fm.kill_router(5, 0);
  EXPECT_EQ(route_fault_aware(mesh, fm, 5, 7, 0), Port::Local);
}

// ---------------------------------------------------------------------------
// End-to-end recovery on the packet-switched fabric
// ---------------------------------------------------------------------------

/// Seeded uniform-random packet soup; the stream is a pure function of the
/// seed so paired runs see identical workloads.
void inject_uniform(Network& net, Rng& rng, int count, int flits = 5) {
  PacketId id = 1;
  const NodeId nodes = static_cast<NodeId>(net.num_nodes());
  int sent = 0;
  while (sent < count) {
    const NodeId src = static_cast<NodeId>(rng.uniform_int(nodes));
    const NodeId dst = static_cast<NodeId>(rng.uniform_int(nodes));
    if (src == dst) continue;
    auto p = std::make_shared<Packet>();
    p->id = id++;
    p->src = src;
    p->dst = dst;
    p->num_flits = flits;
    net.ni(src).send(std::move(p), net.now());
    ++sent;
    net.tick();
  }
}

void drain(Network& net, int max_cycles = 300000) {
  for (int i = 0; i < max_cycles && !net.quiescent(); ++i) net.tick();
  ASSERT_TRUE(net.quiescent());
}

TEST(E2eRecovery, BerStormDeliversEveryPacketUncorrupted) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.link_ber = 1e-3;
  cfg.fault_seed = 5;
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 128;
  cfg.retx_backoff_cap_cycles = 1024;
  Network net(cfg);
  Rng rng(7);
  inject_uniform(net, rng, 3000);
  drain(net);

  const DegradationReport d = net.degradation_report();
  const NiCounters ni = net.ni_counters();
  EXPECT_EQ(ni[NiCounter::DataPacketsSent], 3000u);
  // The acceptance bar: every injected packet eventually delivered, and
  // corrupted copies were squashed rather than delivered dirty.
  EXPECT_EQ(ni[NiCounter::DataPacketsDelivered], ni[NiCounter::DataPacketsSent]);
  EXPECT_GT(d.corrupted_traversals, 0u);  // the storm was real
  EXPECT_GT(net.router_counters()[RouterCounter::CrcFlaggedFlits], 0u);
  EXPECT_GT(ni[NiCounter::CrcSquashedPackets], 0u);
  EXPECT_GT(ni[NiCounter::Retransmits], 0u);
  EXPECT_EQ(ni[NiCounter::RetxGiveUps], 0u);
  EXPECT_EQ(ni[NiCounter::UnreachableFailed], 0u);
  EXPECT_EQ(d.e2e_outstanding, 0u);
  EXPECT_GE(ni[NiCounter::E2eAcksSent], ni[NiCounter::DataPacketsSent]);
}

TEST(E2eRecovery, PersistentStuckLinkExhaustsRetriesAndGivesUp) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 64;
  cfg.retx_backoff_cap_cycles = 256;
  cfg.max_retx_attempts = 2;
  Network net(cfg);
  // Stuck (not dead) for the whole run: routing keeps using the link, every
  // crossing packet corrupts, and the source's retry budget runs out.
  net.ensure_fault_model().stick_link(11, Port::South, 0, 1000000);
  for (int i = 0; i < 20; ++i) {
    auto p = std::make_shared<Packet>();
    p->id = static_cast<PacketId>(i + 1);
    p->src = 3;  // XY route 3 -> 15: straight South through 11 -> 15
    p->dst = 15;
    p->num_flits = 5;
    net.ni(3).send(std::move(p), net.now());
    net.tick();
  }
  drain(net);
  const NiCounters ni = net.ni_counters();
  EXPECT_EQ(ni[NiCounter::DataPacketsSent], 20u);
  EXPECT_EQ(ni[NiCounter::DataPacketsDelivered], 0u);
  EXPECT_EQ(ni[NiCounter::RetxGiveUps], 20u);
  EXPECT_EQ(ni[NiCounter::Retransmits], 40u);  // exactly max_retx_attempts each
  EXPECT_EQ(net.degradation_report().e2e_outstanding, 0u);
}

TEST(E2eRecovery, WatchdogFlagsPacketsStalledOnRecovery) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 256;
  cfg.retx_backoff_cap_cycles = 4096;
  cfg.max_retx_attempts = 6;
  cfg.watchdog_stall_cycles = 400;
  Network net(cfg);
  net.ensure_fault_model().stick_link(11, Port::South, 0, 1000000);
  auto p = std::make_shared<Packet>();
  p->id = 1;
  p->src = 3;
  p->dst = 15;
  p->num_flits = 5;
  net.ni(3).send(std::move(p), net.now());
  // Long enough for the packet to sit unacked past the stall threshold and
  // for the (coarse-cadence) watchdog sweep to catch it.
  for (int i = 0; i < 4000; ++i) net.tick();
  EXPECT_GE(net.ni_counters()[NiCounter::WatchdogFlagged], 1u);
  // Flagging is once per packet, not once per sweep.
  const std::uint64_t flagged = net.ni_counters()[NiCounter::WatchdogFlagged];
  for (int i = 0; i < 2000; ++i) net.tick();
  EXPECT_EQ(net.ni_counters()[NiCounter::WatchdogFlagged], flagged);
}

TEST(E2eRecovery, PartitionedDestinationFailsCleanly) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 64;
  Network net(cfg);
  FaultModel& fm = net.ensure_fault_model();
  // Cut node 15 off completely (see the reachability unit test above).
  fm.kill_link(14, Port::East, 0);
  fm.kill_link(11, Port::South, 0);
  fm.kill_link(15, Port::West, 0);
  fm.kill_link(15, Port::North, 0);
  for (int i = 0; i < 8; ++i) {
    auto p = std::make_shared<Packet>();
    p->id = static_cast<PacketId>(i + 1);
    p->src = 0;
    p->dst = 15;
    p->num_flits = 5;
    net.ni(0).send(std::move(p), net.now());
    net.tick();
  }
  // A packet to a live node still flows around the carnage.
  auto ok = std::make_shared<Packet>();
  ok->id = 100;
  ok->src = 0;
  ok->dst = 14;
  ok->num_flits = 5;
  net.ni(0).send(std::move(ok), net.now());
  drain(net);

  const DegradationReport d = net.degradation_report();
  const NiCounters ni = net.ni_counters();
  // Unreachable packets were refused at admission: they never entered the
  // fabric, never count as workload, and nothing wanders forever.
  EXPECT_EQ(ni[NiCounter::UnreachableFailed], 8u);
  EXPECT_EQ(ni[NiCounter::DataPacketsSent], 1u);
  EXPECT_EQ(ni[NiCounter::DataPacketsDelivered], 1u);
  EXPECT_EQ(d.e2e_outstanding, 0u);
  EXPECT_EQ(d.failed_links, 4);
  EXPECT_EQ(d.bisection_links_alive, d.bisection_links_total);
}

}  // namespace
}  // namespace hybridnoc
