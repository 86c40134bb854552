// Single-router microtests: wire one router's ports to raw channels and
// observe the pipeline cycle by cycle.
#include "noc/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/state_io.hpp"
#include "noc/network.hpp"

namespace hybridnoc {
namespace {

class NullHolder : public VcHolder {
 public:
  bool holds_vc_allocation(Port, int) const override { return held; }
  bool held = false;
};

PacketPtr make_packet(PacketId id, NodeId src, NodeId dst, int flits) {
  auto p = std::make_shared<Packet>();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->final_dst = dst;
  p->num_flits = flits;
  return p;
}

Flit make_flit(const PacketPtr& pkt, int seq, int vc) {
  Flit f;
  f.pkt = pkt.get();  // tests keep the PacketPtr alive for the run
  f.seq = seq;
  f.vc = vc;
  if (pkt->num_flits == 1) {
    f.type = FlitType::HeadTail;
  } else if (seq == 0) {
    f.type = FlitType::Head;
  } else if (seq == pkt->num_flits - 1) {
    f.type = FlitType::Tail;
  } else {
    f.type = FlitType::Body;
  }
  return f;
}

/// A credit the router returned upstream, and the cycle it became readable.
struct ReturnedCredit {
  Cycle at = 0;
  int vc = 0;
  bool operator==(const ReturnedCredit&) const = default;
};

/// One router in the middle of a 3x3 mesh (node 4), with all five ports wired
/// to loose channels the test drives directly. The router holds its config
/// by reference, so the bench keeps it.
struct RouterBench {
  explicit RouterBench(NocConfig c = NocConfig::packet_vc4(3))
      : cfg(c), mesh(cfg.k), router(cfg, mesh.node({1, 1}), mesh) {
    for (int p = 0; p < kNumPorts; ++p) {
      in[p] = std::make_unique<FlitChannel>(kDataChannelLatency);
      in_credit[p] = std::make_unique<CreditWire>();
      out[p] = std::make_unique<FlitChannel>(kDataChannelLatency);
      out_credit[p] = std::make_unique<CreditWire>();
      router.connect_input(static_cast<Port>(p), in[p].get(), in_credit[p].get(),
                           &upstream, opposite(static_cast<Port>(p)));
      router.connect_output(static_cast<Port>(p), out[p].get(), out_credit[p].get());
    }
  }

  /// Tick the router up to `target`, playing every upstream neighbour's
  /// credit input: each cycle's returned credits are read off the wires
  /// (which hold only two cycles) into `returned`.
  void run_to(Cycle target) {
    while (now < target) {
      for (int p = 0; p < kNumPorts; ++p)
        while (auto c = in_credit[p]->receive(now)) returned[p].push_back({now, c->vc});
      router.tick(now++);
    }
  }

  NocConfig cfg;
  Mesh mesh;
  NullHolder upstream;
  Router router;
  std::unique_ptr<FlitChannel> in[kNumPorts], out[kNumPorts];
  std::unique_ptr<CreditWire> in_credit[kNumPorts], out_credit[kNumPorts];
  std::vector<ReturnedCredit> returned[kNumPorts];
  Cycle now = 0;
};

TEST(Router, SingleFlitPipelineIsFourCyclesPlusLink) {
  RouterBench b;
  // Packet headed east: inject on the west input, readable at cycle 10.
  const NodeId east = b.mesh.node({2, 1});
  auto pkt = make_packet(1, b.mesh.node({0, 1}), east, 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 0), 8);
  b.run_to(16);
  // BW@10, VA@11, SA@12, ST@13, written end of 13 -> readable 15.
  auto& east_out = *b.out[static_cast<int>(Port::East)];
  EXPECT_TRUE(east_out.arrival_at(15));
}

TEST(Router, XyRouteSelectsOutputPort) {
  RouterBench b;
  auto north = make_packet(1, 0, b.mesh.node({1, 0}), 1);
  auto local = make_packet(2, 0, b.mesh.node({1, 1}), 1);
  b.in[static_cast<int>(Port::South)]->send(make_flit(north, 0, 0), 0);
  b.in[static_cast<int>(Port::West)]->send(make_flit(local, 0, 1), 0);
  b.run_to(10);
  EXPECT_TRUE(b.out[static_cast<int>(Port::North)]->arrival_at(7));
  EXPECT_TRUE(b.out[static_cast<int>(Port::Local)]->arrival_at(7));
}

TEST(Router, CreditReturnedAtSwitchAllocation) {
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 2), 8);
  b.run_to(14);
  // SA at 12 sends the credit; latency-1 wire -> readable at 13.
  EXPECT_EQ(b.returned[static_cast<int>(Port::West)],
            (std::vector<ReturnedCredit>{{13, 2}}));
}

TEST(Router, WormholeFlitsStayOrderedAndContiguous) {
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 5);
  for (int s = 0; s < 5; ++s)
    b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, s, 0),
                                             static_cast<Cycle>(8 + s));
  b.run_to(30);
  auto& east_out = *b.out[static_cast<int>(Port::East)];
  int expected_seq = 0;
  for (Cycle t = 10; t < 30; ++t) {
    while (auto f = east_out.receive(t)) {
      EXPECT_EQ(f->seq, expected_seq++);
    }
  }
  EXPECT_EQ(expected_seq, 5);
}

TEST(Router, BodyFlitsStreamOnePerCycle) {
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 5);
  for (int s = 0; s < 5; ++s)
    b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, s, 0),
                                             static_cast<Cycle>(8 + s));
  b.run_to(30);
  // Head readable out at 15, then one flit per cycle.
  auto& east_out = *b.out[static_cast<int>(Port::East)];
  for (Cycle t = 15; t < 20; ++t) {
    auto f = east_out.receive(t);
    ASSERT_TRUE(f.has_value()) << t;
    EXPECT_EQ(f->seq, static_cast<int>(t - 15));
  }
}

TEST(Router, TwoInputsSameOutputArbitrated) {
  RouterBench b;
  auto a = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  auto c = make_packet(2, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(a, 0, 0), 8);
  b.in[static_cast<int>(Port::North)]->send(make_flit(c, 0, 0), 8);
  b.run_to(20);
  // Both must come out of East, on different cycles.
  int got = 0;
  Cycle first = 0, second = 0;
  for (Cycle t = 10; t < 20; ++t) {
    while (b.out[static_cast<int>(Port::East)]->receive(t)) {
      if (++got == 1) first = t;
      else second = t;
    }
  }
  EXPECT_EQ(got, 2);
  EXPECT_NE(first, second);
}

TEST(Router, DistinctVcsForConcurrentPackets) {
  // Two packets from the same input port on different VCs toward different
  // outputs proceed concurrently.
  RouterBench b;
  auto north = make_packet(1, 0, b.mesh.node({1, 0}), 1);
  auto east = make_packet(2, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(north, 0, 0), 8);
  b.in[static_cast<int>(Port::West)]->send(make_flit(east, 0, 1), 8);
  b.run_to(20);
  bool got_north = false, got_east = false;
  for (Cycle t = 10; t < 20; ++t) {
    while (b.out[static_cast<int>(Port::North)]->receive(t)) got_north = true;
    while (b.out[static_cast<int>(Port::East)]->receive(t)) got_east = true;
  }
  EXPECT_TRUE(got_north);
  EXPECT_TRUE(got_east);
}

TEST(Router, StallsWithoutDownstreamCredits) {
  RouterBench b;
  // Two 5-flit packets to the same output VC pool: with 4 VCs both can be
  // VA'd, but with zero... instead exhaust credits by never returning any:
  // send 5 flits (fills one downstream VC), then a second packet must use
  // another VC; send 4 more packets to occupy all 4 VCs, and a 5th packet
  // must wait until credits return.
  std::vector<PacketPtr> pkts;  // outlive the run: flits hold raw pointers
  for (int i = 0; i < 5; ++i) {
    auto pkt = make_packet(static_cast<PacketId>(i + 1), 0, b.mesh.node({2, 1}), 5);
    for (int s = 0; s < 5; ++s)
      b.in[static_cast<int>(Port::West)]->send(
          make_flit(pkt, s, i % 4), static_cast<Cycle>(8 + i * 5 + s));
    pkts.push_back(std::move(pkt));
  }
  b.run_to(120);
  // Only 4 packets' flits (20) can come out; packet 5 needs vc0 which still
  // holds packet 1's allocation downstream (no credits ever returned).
  int flits_out = 0;
  for (Cycle t = 10; t < 120; ++t)
    while (b.out[static_cast<int>(Port::East)]->receive(t)) ++flits_out;
  EXPECT_EQ(flits_out, 20);
  EXPECT_FALSE(b.router.idle());
}

TEST(Router, EnergyEventsAreCounted) {
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 5);
  for (int s = 0; s < 5; ++s)
    b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, s, 0),
                                             static_cast<Cycle>(8 + s));
  b.run_to(30);
  const auto& e = b.router.energy();
  EXPECT_EQ(e.buffer_writes, 5u);
  EXPECT_EQ(e.buffer_reads, 5u);
  EXPECT_EQ(e.xbar_flits, 5u);
  EXPECT_EQ(e.link_flits, 5u);  // East is a real link
  EXPECT_EQ(e.vc_arbs, 1u);     // one packet, one VC allocation
  EXPECT_EQ(e.sw_arbs, 5u);
  EXPECT_EQ(e.cycles, 30u);
}

TEST(Router, IdleReflectsBufferedFlits) {
  RouterBench b;
  EXPECT_TRUE(b.router.idle());
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 0), 8);
  b.run_to(11);
  EXPECT_FALSE(b.router.idle());
  b.run_to(20);
  EXPECT_TRUE(b.router.idle());
}

static_assert(sizeof(Flit) == 16, "a flit is 16 bytes, as on the wire");
static_assert(std::is_trivially_copyable_v<Flit>, "flits move by plain copy");

// Closed-loop drive of two VCs of the west input. The upstream sends one
// flit a cycle on a credit of its VC (a new packet's head only once every
// credit of the VC is home), VC 1 first. VC 1 carries four one-flit packets
// and then a four-flit one, all for the local port, whose downstream keeps
// its credits until cycle 80: the last packet finds no grantable VC and
// waits in VA with its flits buffered. Meanwhile VC 0 streams twelve flits
// east, where every credit returns the cycle its flit arrives. Both windows
// wrap at any depth, and a window that overran its slots would clobber the
// waiting flits. After every cycle collect_in_flight must list exactly the
// flits inside the router.
void drive_wrapping_vcs(int depth) {
  NocConfig cfg = NocConfig::packet_vc4(3);
  cfg.vc_buffer_depth = depth;
  RouterBench b(cfg);
  const auto west = static_cast<size_t>(Port::West);
  constexpr int kVcs = 2;
  std::vector<PacketPtr> pkts;
  std::vector<Flit> flits[kVcs];  // per input VC, in send order
  std::map<const Packet*, int> input_vc;
  auto add = [&](int vc, NodeId dst, int nflits) {
    pkts.push_back(make_packet(pkts.size() + 1, 0, dst, nflits));
    input_vc[pkts.back().get()] = vc;
    for (int s = 0; s < nflits; ++s) flits[vc].push_back(make_flit(pkts.back(), s, vc));
  };
  for (int i = 0; i < 3; ++i) add(0, b.mesh.node({2, 1}), 4);
  for (int i = 0; i < 4; ++i) add(1, b.mesh.node({1, 1}), 1);
  add(1, b.mesh.node({1, 1}), 4);
  const size_t total = flits[0].size() + flits[1].size();

  size_t next[kVcs] = {};
  int credits[kVcs] = {depth, depth};
  std::vector<Cycle> sent_at;
  std::vector<Flit> arrived;
  std::vector<Credit> held_back;  // the local port's
  for (Cycle t = 0; t < 400 && arrived.size() < total; ++t) {
    while (auto c = b.in_credit[west]->receive(t)) ++credits[c->vc];
    for (int vc = kVcs - 1; vc >= 0; --vc) {
      if (next[vc] == flits[vc].size() || credits[vc] == 0) continue;
      const Flit& f = flits[vc][next[vc]];
      if (f.is_head() && credits[vc] != depth) continue;
      b.in[west]->send(f, t);
      sent_at.push_back(t);
      ++next[vc];
      --credits[vc];
      break;
    }
    b.router.tick(t);
    size_t on_links = 0;
    for (const Port out : {Port::East, Port::Local}) {
      FlitChannel& ch = *b.out[static_cast<size_t>(out)];
      while (auto f = ch.receive(t)) {
        arrived.push_back(*f);
        if (out == Port::Local) {
          held_back.push_back({f->vc});
        } else {
          b.out_credit[static_cast<size_t>(out)]->send({f->vc}, t);
        }
      }
      on_links += ch.in_flight();
    }
    if (t >= 80) {
      for (const Credit c : held_back)
        b.out_credit[static_cast<size_t>(Port::Local)]->send(c, t);
      held_back.clear();
    }
    const auto taken_in = std::count_if(sent_at.begin(), sent_at.end(), [&](Cycle c) {
      return c + kDataChannelLatency <= t;
    });
    std::vector<Packet*> held;
    b.router.collect_in_flight(held);
    ASSERT_EQ(held.size(), static_cast<size_t>(taken_in) - arrived.size() - on_links)
        << "cycle " << t;
  }
  for (int vc = 0; vc < kVcs; ++vc) {
    std::vector<std::pair<PacketId, int>> sent, got;
    for (const Flit& f : flits[vc]) sent.emplace_back(f.pkt->id, f.seq);
    for (const Flit& f : arrived)
      if (input_vc[f.pkt] == vc) got.emplace_back(f.pkt->id, f.seq);
    EXPECT_EQ(got, sent) << "input VC " << vc;
  }
  EXPECT_TRUE(b.router.idle());
}

TEST(Router, VcBufferWindowsWrapInOrderAtDefaultDepth) { drive_wrapping_vcs(5); }

TEST(Router, VcBufferWindowsWrapInOrderAtDepthOne) { drive_wrapping_vcs(1); }

TEST(Router, BufferBlockAllocatedAtFirstFlit) {
  RouterBench b;
  b.run_to(50);
  std::vector<Packet*> held;
  b.router.collect_in_flight(held);
  EXPECT_TRUE(held.empty());
  EXPECT_EQ(b.router.buffer_bytes(), 0u) << "a router that never buffered a flit";
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 0), 50);
  b.run_to(60);
  const NocConfig& cfg = b.router.cfg();
  EXPECT_EQ(b.router.buffer_bytes(),
            static_cast<size_t>(kNumPorts * cfg.num_vcs * cfg.vc_buffer_depth) * 24u);
}

TEST(Router, AdaptiveRoutePrefersCreditRichPort) {
  RouterBench b;
  // Config packet from (1,1) to (2,2): candidates East and South.
  auto cfgpkt = make_packet(1, 0, b.mesh.node({2, 2}), 1);
  cfgpkt->type = MsgType::AckSuccess;  // any config type routes adaptively
  // Drain credits from East by occupying it: simulate by a long packet.
  auto hog = make_packet(2, 0, b.mesh.node({2, 1}), 5);
  for (int s = 0; s < 5; ++s)
    b.in[static_cast<int>(Port::North)]->send(make_flit(hog, s, 0),
                                              static_cast<Cycle>(4 + s));
  b.in[static_cast<int>(Port::West)]->send(make_flit(cfgpkt, 0, 0), 9);
  b.run_to(25);
  bool south = false;
  for (Cycle t = 10; t < 25; ++t)
    while (b.out[static_cast<int>(Port::South)]->receive(t)) south = true;
  EXPECT_TRUE(south);
}

TEST(Router, ContendedOutputGrantsRotateRoundRobin) {
  // Four inputs each hold a 4-flit packet for East from cycle 10 on; every
  // input always has a candidate, so the East arbiter must hand the output
  // to Local, North, South, West, Local, ... one grant per cycle.
  RouterBench b;
  const NodeId east = b.mesh.node({2, 1});
  const Port inputs[] = {Port::Local, Port::North, Port::South, Port::West};
  std::vector<PacketPtr> pkts;
  for (int i = 0; i < 4; ++i) {
    auto pkt = make_packet(static_cast<PacketId>(i + 1), 0, east, 4);
    for (int s = 0; s < 4; ++s)
      b.in[static_cast<int>(inputs[i])]->send(make_flit(pkt, s, 0),
                                              static_cast<Cycle>(8 + s));
    pkts.push_back(std::move(pkt));
  }
  b.run_to(40);
  std::vector<PacketId> order;
  Cycle prev = 0;
  for (Cycle t = 10; t < 40; ++t) {
    while (auto f = b.out[static_cast<int>(Port::East)]->receive(t)) {
      if (!order.empty()) {
        EXPECT_EQ(t, prev + 1) << "one grant per cycle";
      }
      prev = t;
      order.push_back(f->pkt->id);
    }
  }
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<PacketId>(i % 4 + 1)) << "grant " << i;
}

TEST(Router, DistinctOutputsGrantedInTheSameCycle) {
  RouterBench b;
  auto east = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  auto north = make_packet(2, 0, b.mesh.node({1, 0}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(east, 0, 0), 8);
  b.in[static_cast<int>(Port::South)]->send(make_flit(north, 0, 0), 8);
  b.run_to(13);
  // BW@10, VA@11, SA@12: both inputs win their own output in one cycle.
  EXPECT_EQ(b.router.energy().sw_arbs, 2u);
  b.run_to(16);
  EXPECT_TRUE(b.out[static_cast<int>(Port::East)]->arrival_at(15));
  EXPECT_TRUE(b.out[static_cast<int>(Port::North)]->arrival_at(15));
}

TEST(RouterDeathTest, MissedWakeStillTripsUnconsumedItemCheck) {
  // The router polls only channels that hold something; a channel whose
  // item matured a cycle before the router looked must still be polled and
  // caught, not hidden by the occupancy bookkeeping.
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 0), 8);  // ready 10
  b.run_to(10);
  EXPECT_DEATH(b.router.tick(11), "unconsumed channel item");
}

/// Seeded uniform-random 5-flit packets on a 4x4 packet-switched mesh,
/// then an idle tail; returns packet id -> delivery cycle.
std::map<PacketId, Cycle> run_uniform(int threads, EnergyCounters& energy) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.tick_threads = threads;
  Network net(cfg);
  std::map<PacketId, Cycle> deliveries;
  net.set_deliver_handler(
      [&](const PacketPtr& p, Cycle at) { deliveries.emplace(p->id, at); });
  Rng rng(7);
  PacketId id = 1;
  while (net.now() < 3000) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (!rng.bernoulli(0.04)) continue;
      const auto dst = static_cast<NodeId>(rng.uniform_int(net.num_nodes()));
      if (dst == s) continue;
      auto p = std::make_shared<Packet>();
      p->id = id++;
      p->src = s;
      p->dst = dst;
      p->num_flits = 5;
      net.ni(s).send(std::move(p), net.now());
    }
    net.tick();
  }
  while (net.now() < 4000) net.tick();
  energy = net.total_energy();
  return deliveries;
}

TEST(RouterThread, TwoShardRunMatchesSerialRun) {
  // Mesh links between the two shards are staged channels: their consumer
  // applies them with commit_staged(), which sets the consuming router's
  // occupancy bits from that router's own shard. Run under the thread
  // sanitizer leg (its filter matches this name), and bit-identical to the
  // single-threaded engine.
  EnergyCounters serial_energy, sharded_energy;
  const auto serial = run_uniform(1, serial_energy);
  const auto sharded = run_uniform(2, sharded_energy);
  EXPECT_GT(serial.size(), 300u);  // non-vacuity
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(serial_energy.buffer_writes, sharded_energy.buffer_writes);
  EXPECT_EQ(serial_energy.sw_arbs, sharded_energy.sw_arbs);
  EXPECT_EQ(serial_energy.xbar_flits, sharded_energy.xbar_flits);
  EXPECT_EQ(serial_energy.link_flits, sharded_energy.link_flits);
  EXPECT_EQ(serial_energy.cycles, sharded_energy.cycles);
}

// Hand-built archives for a RouterBench router (every port wired): each
// field well-formed except the arbiter pointer or draining VC a test puts
// out of range, on the Local input and output.
struct RouterArchive {
  int in_sa_rr = 0;
  int out_sa_rr = 0;
  int out_va_rr = 0;
  int draining_vc = -1;
};

std::string router_archive(const NocConfig& cfg, const RouterArchive& a) {
  StateWriter w;
  w.section("router");
  for (int p = 0; p < kNumPorts; ++p) w.i32(p == 0 ? a.in_sa_rr : 0);
  for (int p = 0; p < kNumPorts; ++p) {
    for (int v = 0; v < cfg.num_vcs; ++v) w.i32(cfg.vc_buffer_depth);
    for (int v = 0; v < cfg.num_vcs; ++v) {
      w.b(/*vc_busy=*/false);
      w.b(/*tail_sent=*/false);
    }
    w.i32(p == 0 ? a.out_sa_rr : 0);
    w.i32(p == 0 ? a.out_va_rr : 0);
  }
  w.field(RouterCounters{}.n);
  w.i32(/*announced_active_vcs=*/cfg.num_vcs);
  w.i32(a.draining_vc);
  w.u64(/*busy_vc_integral=*/0);
  w.u64(/*residency_sum=*/0);
  w.u64(/*residency_count=*/0);
  w.u64(/*epoch_start=*/0);
  w.field(EnergyCounters{});
  w.u64(/*accounted_until=*/0);
  return w.seal();
}

void restore_router(const RouterArchive& a) {
  RouterBench b;
  StateReader r(router_archive(b.router.cfg(), a));
  b.router.restore_state(r);
}

TEST(RouterRestore, WellFormedArchiveRoundTrips) {
  RouterBench b;
  const NocConfig& cfg = b.router.cfg();
  const std::string sealed =
      router_archive(cfg, {cfg.num_vcs - 1, kNumPorts - 1, cfg.num_vcs - 1,
                           cfg.num_vcs - 1});
  StateReader r(sealed);
  b.router.restore_state(r);
  StateWriter w;
  b.router.save_state(w);
  EXPECT_EQ(w.seal(), sealed);
}

TEST(RouterRestore, InputArbiterPointerOutOfRangeThrows) {
  const int vcs = NocConfig::packet_vc4(3).num_vcs;
  EXPECT_THROW(restore_router({.in_sa_rr = vcs}), StateError);
  EXPECT_THROW(restore_router({.in_sa_rr = -1}), StateError);
}

TEST(RouterRestore, OutputArbiterPointerOutOfRangeThrows) {
  EXPECT_THROW(restore_router({.out_sa_rr = kNumPorts}), StateError);
  EXPECT_THROW(restore_router({.out_sa_rr = -1}), StateError);
}

TEST(RouterRestore, VcAllocatorPointerOutOfRangeThrows) {
  const int vcs = NocConfig::packet_vc4(3).num_vcs;
  EXPECT_THROW(restore_router({.out_va_rr = vcs}), StateError);
  EXPECT_THROW(restore_router({.out_va_rr = -1}), StateError);
}

TEST(RouterRestore, DrainingVcOutOfRangeThrows) {
  const int vcs = NocConfig::packet_vc4(3).num_vcs;
  EXPECT_THROW(restore_router({.draining_vc = vcs}), StateError);
  EXPECT_THROW(restore_router({.draining_vc = -2}), StateError);
}

}  // namespace
}  // namespace hybridnoc
