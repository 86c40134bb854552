// Parameterized property sweeps: invariants that must hold for every
// architecture, traffic pattern, mesh size and feature combination —
// conservation (every injected packet is delivered exactly once, at its
// destination), drainability (no deadlock/livelock), determinism, and
// protocol-quiescence accounting.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/net_adapter.hpp"
#include "tdm/fault_trace.hpp"
#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"

namespace hybridnoc {
namespace {

struct PropertyCase {
  RouterArch arch;
  TrafficPattern pattern;
  int k;
  bool sharing;
  bool gating;
  double rate;
};

std::string case_name(const testing::TestParamInfo<PropertyCase>& info) {
  const auto& c = info.param;
  std::string s = router_arch_name(c.arch);
  s += std::string("_") + traffic_pattern_name(c.pattern);
  s += "_k" + std::to_string(c.k);
  if (c.sharing) s += "_sharing";
  if (c.gating) s += "_gating";
  s += "_r" + std::to_string(static_cast<int>(c.rate * 100));
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

NocConfig make_config(const PropertyCase& c) {
  NocConfig cfg;
  switch (c.arch) {
    case RouterArch::PacketSwitched: cfg = NocConfig::packet_vc4(c.k); break;
    case RouterArch::HybridTdm:
      cfg = c.sharing ? NocConfig::hybrid_tdm_hop_vc4(c.k)
                      : NocConfig::hybrid_tdm_vc4(c.k);
      cfg.slot_table_size = 32;  // short waits keep the sweep fast
      cfg.initial_active_slots = 16;
      cfg.path_freq_threshold = 4;
      break;
    case RouterArch::HybridSdm: cfg = NocConfig::hybrid_sdm_vc4(c.k); break;
  }
  cfg.vc_power_gating = c.gating;
  return cfg;
}

class NetworkProperties : public testing::TestWithParam<PropertyCase> {};

TEST_P(NetworkProperties, ConservationAndDrain) {
  const PropertyCase& c = GetParam();
  auto net = make_network(make_config(c));
  const Mesh& mesh = net->mesh();

  std::map<PacketId, NodeId> outstanding;
  bool misrouted = false;
  std::uint64_t delivered = 0;
  net->set_deliver_handler([&](const PacketPtr& p, Cycle) {
    ++delivered;
    const auto it = outstanding.find(p->id);
    if (it == outstanding.end() || it->second != p->final_dst) {
      misrouted = true;
      return;
    }
    outstanding.erase(it);
  });

  SyntheticTraffic traffic(mesh, c.pattern, c.rate, 5, /*seed=*/99);
  PacketId id = 1;
  std::uint64_t injected = 0;
  for (int cycle = 0; cycle < 4000; ++cycle) {
    traffic.generate([&](NodeId s, NodeId d) {
      auto p = std::make_shared<Packet>();
      p->id = id++;
      p->src = s;
      p->dst = d;
      p->num_flits = 5;
      outstanding[p->id] = d;
      net->send(std::move(p));
      ++injected;
    });
    net->tick();
  }
  ASSERT_GT(injected, 50u);

  net->set_policy_frozen(true);
  for (int i = 0; i < 60000 && !net->quiescent(); ++i) net->tick();
  EXPECT_TRUE(net->quiescent()) << "network failed to drain (deadlock?)";
  EXPECT_FALSE(misrouted);
  EXPECT_EQ(delivered, injected);
  EXPECT_TRUE(outstanding.empty());
}

TEST_P(NetworkProperties, DeterministicReplay) {
  const PropertyCase& c = GetParam();
  auto run = [&] {
    auto net = make_network(make_config(c));
    std::vector<std::pair<PacketId, Cycle>> log;
    net->set_deliver_handler(
        [&](const PacketPtr& p, Cycle at) { log.emplace_back(p->id, at); });
    SyntheticTraffic traffic(net->mesh(), c.pattern, c.rate, 5, 7);
    PacketId id = 1;
    for (int cycle = 0; cycle < 1500; ++cycle) {
      traffic.generate([&](NodeId s, NodeId d) {
        auto p = std::make_shared<Packet>();
        p->id = id++;
        p->src = s;
        p->dst = d;
        p->num_flits = 5;
        net->send(std::move(p));
      });
      net->tick();
    }
    return log;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, NetworkProperties,
    testing::Values(
        PropertyCase{RouterArch::PacketSwitched, TrafficPattern::UniformRandom,
                     4, false, false, 0.10},
        PropertyCase{RouterArch::PacketSwitched, TrafficPattern::Transpose, 6,
                     false, true, 0.15},
        PropertyCase{RouterArch::PacketSwitched, TrafficPattern::Tornado, 5,
                     false, false, 0.20},
        PropertyCase{RouterArch::HybridTdm, TrafficPattern::UniformRandom, 4,
                     false, false, 0.10},
        PropertyCase{RouterArch::HybridTdm, TrafficPattern::Tornado, 6, false,
                     false, 0.20},
        PropertyCase{RouterArch::HybridTdm, TrafficPattern::Tornado, 6, true,
                     false, 0.20},
        PropertyCase{RouterArch::HybridTdm, TrafficPattern::Transpose, 6, true,
                     true, 0.15},
        PropertyCase{RouterArch::HybridTdm, TrafficPattern::Hotspot, 6, true,
                     false, 0.10},
        PropertyCase{RouterArch::HybridTdm, TrafficPattern::BitComplement, 4,
                     false, true, 0.10},
        PropertyCase{RouterArch::HybridSdm, TrafficPattern::UniformRandom, 4,
                     false, false, 0.08},
        PropertyCase{RouterArch::HybridSdm, TrafficPattern::Tornado, 6, false,
                     false, 0.10}),
    case_name);

// --- zero-load latency property: the analytical pipeline model holds for
// every source/destination pair on every mesh size ---

class ZeroLoadLatency : public testing::TestWithParam<int> {};

TEST_P(ZeroLoadLatency, MatchesPipelineModelForAllPairs) {
  const int k = GetParam();
  Network net(NocConfig::packet_vc4(k));
  Rng rng(5);
  std::map<PacketId, Cycle> delivered_at;
  std::map<PacketId, Cycle> sent_at;
  std::map<PacketId, int> hops;
  net.set_deliver_handler(
      [&](const PacketPtr& p, Cycle at) { delivered_at[p->id] = at; });

  PacketId id = 1;
  // 24 random pairs, one packet in flight at a time.
  for (int trial = 0; trial < 24; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(net.num_nodes())));
    const NodeId d = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(net.num_nodes())));
    if (s == d) continue;
    auto p = std::make_shared<Packet>();
    p->id = id;
    p->src = s;
    p->dst = d;
    p->num_flits = 5;
    sent_at[id] = net.now();
    hops[id] = net.mesh().hop_distance(s, d);
    net.ni(s).send(std::move(p), net.now());
    for (int t = 0; t < 5 * 2 * k + 40; ++t) net.tick();
    ++id;
  }
  for (const auto& [pid, at] : delivered_at) {
    EXPECT_EQ(at - sent_at[pid],
              static_cast<Cycle>(5 * hops[pid] + 6 + 5))
        << "packet " << pid << " hops " << hops[pid];
  }
  EXPECT_EQ(delivered_at.size(), sent_at.size());
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, ZeroLoadLatency, testing::Values(2, 3, 4, 6, 8),
                         [](const testing::TestParamInfo<int>& i) {
                           // Appending instead of "k" + to_string(...):
                           // GCC 12 at -O3 reports a false -Wrestrict on
                           // operator+(const char*, string&&).
                           std::string name = "k";
                           name += std::to_string(i.param);
                           return name;
                         });

// --- slot-table reservation algebra across table geometries ---

class SlotTableGeometry
    : public testing::TestWithParam<std::tuple<int /*capacity*/, int /*active*/,
                                               int /*duration*/>> {};

TEST_P(SlotTableGeometry, ReserveReleaseRoundTrip) {
  const auto [capacity, active, duration] = GetParam();
  SlotTable t(capacity, active);
  Rng rng(static_cast<std::uint64_t>(capacity * 131 + active));
  // Fill with random non-conflicting reservations, then release everything.
  struct R {
    int slot;
    Port in;
  };
  std::vector<R> made;
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int slot = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(active)));
    const Port in = static_cast<Port>(rng.uniform_int(kNumPorts));
    const Port out = static_cast<Port>(rng.uniform_int(kNumPorts));
    const bool could = t.can_reserve(slot, duration, in, out);
    const bool did = t.reserve(slot, duration, in, out);
    EXPECT_EQ(could, did);
    if (did) made.push_back({slot, in});
  }
  EXPECT_EQ(t.valid_entries(),
            static_cast<int>(made.size()) * duration);
  for (const auto& r : made) {
    EXPECT_TRUE(t.release(r.slot, duration, r.in).has_value());
  }
  EXPECT_EQ(t.valid_entries(), 0);
  EXPECT_DOUBLE_EQ(t.occupancy(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SlotTableGeometry,
    testing::Combine(testing::Values(32, 128, 256),
                     testing::Values(16, 32),
                     testing::Values(1, 4, 5)),
    [](const testing::TestParamInfo<std::tuple<int, int, int>>& i) {
      return "cap" + std::to_string(std::get<0>(i.param)) + "_act" +
             std::to_string(std::get<1>(i.param)) + "_dur" +
             std::to_string(std::get<2>(i.param));
    });

// --- fault-trace replay property: a recorded storm replays bit-identically
// with no RNG, and the reservation audit passes after every config event ---

struct ReplayCase {
  std::uint64_t seed;
  std::vector<Cycle> resizes;
  double drop, delay, dup;
};

FaultScenario make_replay_scenario(const ReplayCase& c) {
  FaultScenario s;
  s.k = 5;
  s.run_cycles = 4000;
  s.cooldown_cycles = 3000;
  s.resizes = c.resizes;
  s.dynamic_slot_sizing = !c.resizes.empty();
  s.fault_params.drop_prob = c.drop;
  s.fault_params.delay_prob = c.delay;
  s.fault_params.dup_prob = c.dup;
  s.fault_params.seed = c.seed;
  // Hot far-apart pairs with staggered bursts keep config traffic flowing.
  Rng rng(c.seed * 1000003 + 17);
  const NodeId nodes = static_cast<NodeId>(s.k * s.k);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < 5) {
    const NodeId a = static_cast<NodeId>(rng.uniform_int(nodes));
    const NodeId b = static_cast<NodeId>(rng.uniform_int(nodes));
    const int hops = std::abs(a % s.k - b % s.k) + std::abs(a / s.k - b / s.k);
    if (hops < s.k / 2 + 1) continue;
    pairs.emplace_back(a, b);
  }
  for (Cycle cy = 0; cy < s.run_cycles + s.cooldown_cycles; ++cy) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (((cy >> 8) + i) % 3 != 0) continue;
      if (rng.bernoulli(0.25)) {
        s.traffic.push_back({cy, pairs[i].first, pairs[i].second, 5});
      }
    }
  }
  return s;
}

class FaultReplayProperty : public testing::TestWithParam<ReplayCase> {};

TEST_P(FaultReplayProperty, ReplayMatchesRecordingAndAuditsClean) {
  FaultScenario s = make_replay_scenario(GetParam());
  const ScenarioOutcome rec =
      run_fault_scenario(s, ScenarioMode::Record, false, &s.faults);
  ASSERT_GE(s.faults.records.size(), 10u) << "storm produced no config traffic";
  ASSERT_GT(s.faults.active_faults(), 0u) << "storm injected no faults";

  const ScenarioOutcome rep =
      run_fault_scenario(s, ScenarioMode::Replay, /*audit_each_event=*/true);
  // Every recorded decision lands on its protocol event again...
  EXPECT_EQ(rep.replay_applied, s.faults.records.size());
  // ...the fault counters come out identical without any RNG involved...
  EXPECT_EQ(rep.faults_dropped, rec.faults_dropped);
  EXPECT_EQ(rep.faults_delayed, rec.faults_delayed);
  EXPECT_EQ(rep.faults_duplicated, rec.faults_duplicated);
  // ...the protocol takes the same recovery path...
  EXPECT_EQ(rep.stale_config_drops, rec.stale_config_drops);
  EXPECT_EQ(rep.pending_timeouts, rec.pending_timeouts);
  EXPECT_EQ(rep.expired_reservations, rec.expired_reservations);
  EXPECT_EQ(rep.setup_failures, rec.setup_failures);
  // ...and both runs converge to the same final slot-table state.
  EXPECT_EQ(rep.quiesced, rec.quiesced);
  EXPECT_EQ(rep.slot_state_digest, rec.slot_state_digest);
  EXPECT_EQ(rep.broken_windows, rec.broken_windows);
  EXPECT_EQ(rep.orphan_entries, rec.orphan_entries);
  // The network-wide reservation audit held after every replayed event.
  EXPECT_EQ(rep.replay_audit_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Storms, FaultReplayProperty,
    testing::Values(ReplayCase{3, {}, 0.08, 0.0, 0.0},
                    ReplayCase{7, {1500}, 0.03, 0.06, 0.03},
                    ReplayCase{11, {1000, 2600}, 0.02, 0.04, 0.05}),
    [](const testing::TestParamInfo<ReplayCase>& i) {
      return "seed" + std::to_string(i.param.seed) + "_resizes" +
             std::to_string(i.param.resizes.size());
    });

}  // namespace
}  // namespace hybridnoc
