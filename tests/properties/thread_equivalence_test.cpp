// Bit-identity of the sharded parallel tick engine across thread counts
// (NocConfig::tick_threads). The engine partitions the mesh into contiguous
// spatial shards, ticks them on worker threads against last cycle's channel
// state, and commits cross-shard channel sends after a barrier; none of that
// may change a single observable bit relative to the single-threaded engine.
// Every scenario runs at 1, 2 and max threads and the runs must agree
// exactly on the same fingerprint the scheduler-equivalence suite checks:
// per-packet delivery cycles, every EnergyCounters field, flit-class totals,
// slot-table digests, circuit statistics, config-fault accounting and
// data-plane degradation counters. The config-fault storm and the fixture
// replays additionally cover the serial-fallback path (dispatch hooks whose
// event order is part of the artifact), and the fast-forward cases prove the
// per-shard wake heaps merge into the same quiescence jumps.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "expect_input_error.hpp"
#include "noc/network.hpp"
#include "run_fingerprint.hpp"
#include "tdm/fault_trace.hpp"
#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"
#include "workloads/coherence.hpp"
#include "workloads/nn_dataflow.hpp"

namespace hybridnoc {
namespace {

/// Highest thread count to prove equivalence at: every core we can get,
/// floored at 3 so the shard count always exceeds 2 even on small CI boxes
/// (an odd count also exercises uneven node ranges on the 4x4 mesh).
int max_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 3u, 8u));
}

/// Inject from a seeded synthetic source every cycle for `cycles` cycles.
/// The traffic stream is a pure function of (pattern, rate, seed), so every
/// twin run sees the identical schedule.
template <typename NetT>
void drive_synthetic(NetT& net, TrafficPattern pattern, double rate,
                     Cycle cycles, std::uint64_t seed) {
  SyntheticTraffic traffic(net.mesh(), pattern, rate, 5, seed);
  PacketId next_id = 1;
  while (net.now() < cycles) {
    traffic.generate([&](NodeId src, NodeId dst) {
      auto p = std::make_shared<Packet>();
      p->id = next_id++;
      p->src = src;
      p->dst = dst;
      p->num_flits = 5;
      net.ni(src).send(std::move(p), net.now());
    });
    net.tick();
  }
}

RunFingerprint run_packet(NocConfig cfg, int threads, TrafficPattern pattern,
                          double rate, Cycle cycles, std::uint64_t seed) {
  cfg.tick_threads = threads;
  RunFingerprint fp;
  Network net(cfg);
  install_delivery_capture(net, fp);
  drive_synthetic(net, pattern, rate, cycles, seed);
  // An idle drain tail exercises shard quiescence and delivery staging.
  const Cycle end = net.now() + 3000;
  while (net.now() < end) net.tick();
  harvest_common(net, fp);
  return fp;
}

RunFingerprint run_hybrid(NocConfig cfg, int threads, TrafficPattern pattern,
                          double rate, Cycle cycles, std::uint64_t seed) {
  cfg.tick_threads = threads;
  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);
  drive_synthetic(net, pattern, rate, cycles, seed);
  const Cycle end = net.now() + 3000;
  while (net.now() < end) net.tick();
  harvest_hybrid(net, fp);
  return fp;
}

// ---------------------------------------------------------------------------
// Seeded traffic at 1 / 2 / max threads
// ---------------------------------------------------------------------------

TEST(ThreadEquivalence, PacketSwitchedUniform) {
  const NocConfig cfg = NocConfig::packet_vc4(4);
  const RunFingerprint one =
      run_packet(cfg, 1, TrafficPattern::UniformRandom, 0.12, 5000, 11);
  EXPECT_GT(one.delivered, 100u);  // non-vacuity
  expect_same(one,
              run_packet(cfg, 2, TrafficPattern::UniformRandom, 0.12, 5000, 11));
  expect_same(one, run_packet(cfg, max_threads(), TrafficPattern::UniformRandom,
                              0.12, 5000, 11));
}

TEST(ThreadEquivalence, HybridUniform) {
  const NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  const RunFingerprint one =
      run_hybrid(cfg, 1, TrafficPattern::UniformRandom, 0.10, 6000, 21);
  // Non-vacuity: the scenario must actually exercise delivery and circuits.
  EXPECT_GT(one.delivered, 100u);
  EXPECT_GT(one.ni[NiCounter::CsPackets], 0u);
  expect_same(one,
              run_hybrid(cfg, 2, TrafficPattern::UniformRandom, 0.10, 6000, 21));
  expect_same(one, run_hybrid(cfg, max_threads(), TrafficPattern::UniformRandom,
                              0.10, 6000, 21));
}

TEST(ThreadEquivalence, HybridSharingHotspot) {
  const NocConfig cfg = small_hybrid_cfg(/*sharing=*/true);
  const RunFingerprint one =
      run_hybrid(cfg, 1, TrafficPattern::Hotspot, 0.08, 6000, 31);
  expect_same(one, run_hybrid(cfg, 2, TrafficPattern::Hotspot, 0.08, 6000, 31));
  expect_same(one, run_hybrid(cfg, max_threads(), TrafficPattern::Hotspot, 0.08,
                              6000, 31));
}

// ---------------------------------------------------------------------------
// Seeded config-fault storm (serial-fallback path) at 1 / 2 / max threads
// ---------------------------------------------------------------------------

RunFingerprint run_storm(int threads) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 8;
  cfg.tick_threads = threads;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);

  // Seeded dispatch faults force the engine's serial fallback (the fault RNG
  // stream is order-defined); disabling them mid-run below also proves the
  // fallback hand-off back to parallel cycles is seamless.
  ConfigFaultParams p;
  p.drop_prob = 0.02;
  p.delay_prob = 0.02;
  p.dup_prob = 0.01;
  p.max_delay_cycles = 40;
  p.seed = 1234;
  net.enable_config_faults(p);

  SyntheticTraffic traffic(net.mesh(), TrafficPattern::UniformRandom, 0.10, 5,
                           99);
  PacketId next_id = 1;
  while (net.now() < 8000) {
    if (net.now() == 2500 || net.now() == 5500) {
      net.controller().request_resize();
    }
    traffic.generate([&](NodeId src, NodeId dst) {
      auto p2 = std::make_shared<Packet>();
      p2->id = next_id++;
      p2->src = src;
      p2->dst = dst;
      p2->num_flits = 5;
      net.ni(src).send(std::move(p2), net.now());
    });
    net.tick();
  }
  net.disable_config_faults();
  // Fault-free cooldown runs parallel again: timeouts fire and the lease
  // reclaims orphans with the fabric mostly asleep.
  const Cycle end = net.now() + 6000;
  while (net.now() < end) net.tick();
  harvest_hybrid(net, fp);
  return fp;
}

TEST(ThreadEquivalence, SeededConfigFaultStorm) {
  const RunFingerprint one = run_storm(1);
  // Non-vacuity: faults and resizes must actually have fired.
  EXPECT_GT(one.faults_dropped + one.faults_delayed + one.faults_duplicated,
            0u);
  EXPECT_GE(one.resizes, 1);
  expect_same(one, run_storm(2));
  expect_same(one, run_storm(max_threads()));
}

// ---------------------------------------------------------------------------
// Seeded link-fault storm (parallel data-plane faults) at 1 / 2 / max threads
// ---------------------------------------------------------------------------

RunFingerprint run_link_fault_storm(int threads) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.tick_threads = threads;
  // Data-plane faults run fully parallel: corruption draws are stateless
  // hashes of (seed, link, traversal count) and each directed link has one
  // upstream writer, so shard interleaving cannot change a decision; the
  // routing detours read topology caches precomputed serially each cycle.
  cfg.link_ber = 1e-3;
  cfg.fault_seed = 77;
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 512;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);
  FaultModel& fm = net.ensure_fault_model();
  fm.kill_link(5, Port::East, 2500);
  fm.stick_link(9, Port::North, 4000, 600);

  drive_synthetic(net, TrafficPattern::UniformRandom, 0.08, 6000, 17);
  const Cycle end = net.now() + 8000;
  while (net.now() < end) net.tick();
  harvest_hybrid(net, fp);
  return fp;
}

TEST(ThreadEquivalence, SeededLinkFaultStorm) {
  const RunFingerprint one = run_link_fault_storm(1);
  // Non-vacuity: transients fired and were recovered, and the scheduled
  // link death is live in the final report.
  EXPECT_GT(one.corrupted_traversals, 0u);
  EXPECT_GT(one.router[RouterCounter::CrcFlaggedFlits], 0u);
  EXPECT_GT(one.ni[NiCounter::Retransmits], 0u);
  EXPECT_EQ(one.failed_links, 1);
  EXPECT_GT(one.delivered, 100u);
  expect_same(one, run_link_fault_storm(2));
  expect_same(one, run_link_fault_storm(max_threads()));
}

// ---------------------------------------------------------------------------
// Workload-zoo storms at 1 / 2 / max threads
// ---------------------------------------------------------------------------
// Application-shaped substrates for the shard barrier: the NN pipeline's
// bursty circuit-forming flows and the coherence mix of short control and
// data messages (with short entries circuit-ineligible, mirroring
// run_trace's rule) must tick identically at every thread count.

const char kStormNnDag[] = R"(
mesh 4
layer in   0 0 4 1
layer mid  0 1 4 2
layer out  0 3 4 1
edge in  mid 4096
edge mid out 2048
)";

/// Replay a workload trace once through (no looping).
void drive_trace(HybridNetwork& net, const std::vector<TraceEntry>& entries,
                 int cs_data_flits) {
  std::size_t pos = 0;
  PacketId next_id = 1;
  const Cycle total = entries.back().cycle + 1;
  while (net.now() < total) {
    while (pos < entries.size() && entries[pos].cycle <= net.now()) {
      const TraceEntry& e = entries[pos++];
      auto p = std::make_shared<Packet>();
      p->id = next_id++;
      p->src = e.src;
      p->dst = e.dst;
      p->num_flits = e.flits;
      p->cs_eligible = e.flits >= cs_data_flits;
      net.ni(e.src).send(std::move(p), net.now());
    }
    net.tick();
  }
}

RunFingerprint run_nn_storm(int threads) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.tick_threads = threads;
  cfg.link_ber = 1e-3;
  cfg.fault_seed = 57;
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 512;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);
  net.ensure_fault_model().stick_link(9, Port::North, 400, 300);

  const NnDescriptor d = parse_nn_descriptor_string(kStormNnDag, "storm-nn");
  NnGenParams p;
  p.iterations = 6;
  p.seed = 3;
  drive_trace(net, generate_nn_trace(d, p), cfg.cs_data_flits);
  const Cycle end = net.now() + 8000;
  while (net.now() < end) net.tick();
  harvest_hybrid(net, fp);
  return fp;
}

TEST(ThreadEquivalence, NnDataflowStorm) {
  const RunFingerprint one = run_nn_storm(1);
  // Non-vacuity: the pipeline delivered, formed circuits, and the BER storm
  // fired through them.
  EXPECT_GT(one.delivered, 100u);
  EXPECT_GT(one.ni[NiCounter::CsPackets], 0u);
  EXPECT_GT(one.corrupted_traversals, 0u);
  expect_same(one, run_nn_storm(2));
  expect_same(one, run_nn_storm(max_threads()));
}

RunFingerprint run_coherence_storm(int threads) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 8;
  cfg.tick_threads = threads;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);

  // Config faults exercise the serial fallback under the bimodal mix.
  ConfigFaultParams p;
  p.drop_prob = 0.02;
  p.delay_prob = 0.02;
  p.dup_prob = 0.01;
  p.max_delay_cycles = 40;
  p.seed = 2468;
  net.enable_config_faults(p);

  CoherenceParams cp;
  cp.k = 4;
  cp.cycles = 3000;
  cp.request_rate = 0.04;
  cp.seed = 5;
  drive_trace(net, generate_coherence_trace(cp).entries, cfg.cs_data_flits);
  net.disable_config_faults();
  const Cycle end = net.now() + 6000;
  while (net.now() < end) net.tick();
  harvest_hybrid(net, fp);
  return fp;
}

TEST(ThreadEquivalence, CoherenceStorm) {
  const RunFingerprint one = run_coherence_storm(1);
  // Non-vacuity: requests and replies delivered, and config faults fired.
  EXPECT_GT(one.delivered, 100u);
  EXPECT_GT(one.faults_dropped + one.faults_delayed + one.faults_duplicated,
            0u);
  expect_same(one, run_coherence_storm(2));
  expect_same(one, run_coherence_storm(max_threads()));
}

// ---------------------------------------------------------------------------
// 32x32 scale twin-runs at 1 / max threads
// ---------------------------------------------------------------------------
// At k=32 with max_threads() <= 8 shards the engine uses its row-aligned
// partitioning (only North/South links stage across seams); these runs prove
// that partitioning and the per-shard run-list sweeps keep bit-identity at
// the scale they were built for.

TEST(ThreadEquivalence, Mesh32Uniform) {
  const NocConfig cfg = NocConfig::packet_vc4(32);
  const RunFingerprint one =
      run_packet(cfg, 1, TrafficPattern::UniformRandom, 0.02, 2000, 13);
  // Non-vacuity: sparse but real traffic across the whole mesh.
  EXPECT_GT(one.delivered, 500u);
  expect_same(one, run_packet(cfg, max_threads(), TrafficPattern::UniformRandom,
                              0.02, 2000, 13));
}

const char kMesh32NnDag[] = R"(
# 32x32 pipeline: the top edge row feeds two middle rows, which feed the
# bottom edge row — long recurring flows spanning the whole mesh.
mesh 32
layer in   0 0 32 1
layer mid  0 8 32 2
layer out  0 31 32 1
edge in  mid 8192
edge mid out 4096
)";

RunFingerprint run_mesh32_nn(int threads) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(32);
  cfg.path_freq_threshold = 2;  // circuits form within the short trace
  cfg.tick_threads = threads;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);
  const NnDescriptor d = parse_nn_descriptor_string(kMesh32NnDag, "mesh32-nn");
  NnGenParams p;
  p.iterations = 4;
  p.seed = 9;
  drive_trace(net, generate_nn_trace(d, p), cfg.cs_data_flits);
  const Cycle end = net.now() + 3000;
  while (net.now() < end) net.tick();
  harvest_hybrid(net, fp);
  return fp;
}

TEST(ThreadEquivalence, Mesh32NnDataflow) {
  const RunFingerprint one = run_mesh32_nn(1);
  // Non-vacuity: the pipeline delivered and formed circuits on the large
  // mesh across every row seam.
  EXPECT_GT(one.delivered, 100u);
  EXPECT_GT(one.ni[NiCounter::CsPackets], 0u);
  expect_same(one, run_mesh32_nn(max_threads()));
}

// ---------------------------------------------------------------------------
// Golden fixture replays at 1 / 2 / max threads
// ---------------------------------------------------------------------------

RunFingerprint replay_fixture(const FaultScenario& s, int threads) {
  NocConfig cfg = s.to_config();
  cfg.tick_threads = threads;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);
  // Mirror run_fault_scenario's replay split: config-plane records feed the
  // dispatch-replay hook, hardware records (Link/Router) are re-derived onto
  // the fault model, fired transients replay by (link, occurrence).
  FaultTrace config_trace;
  std::vector<LinkFaultEvent> transients;
  bool any_data_records = false;
  for (const FaultRecord& r : s.faults.records) {
    if (r.kind != ConfigKind::Link && r.kind != ConfigKind::Router) {
      config_trace.records.push_back(r);
      continue;
    }
    any_data_records = true;
    FaultModel& fm = net.ensure_fault_model();
    if (r.kind == ConfigKind::Router) {
      fm.kill_router(r.src, r.cycle);
    } else if (r.action == FaultAction::Kill) {
      fm.kill_link(r.src, static_cast<Port>(r.dst), r.cycle);
    } else if (r.action == FaultAction::Stuck) {
      fm.stick_link(r.src, static_cast<Port>(r.dst), r.cycle, r.delay);
    } else {
      transients.push_back({FaultKind::Transient, r.src,
                            static_cast<Port>(r.dst), r.cycle, 0,
                            static_cast<std::uint64_t>(r.occurrence)});
    }
  }
  if (any_data_records || s.link_ber > 0.0) {
    net.ensure_fault_model().set_transient_replay(transients);
  }
  net.enable_config_fault_replay(config_trace);

  std::size_t tpos = 0;
  PacketId next_id = 1;
  const Cycle total = s.run_cycles + s.cooldown_cycles;
  while (net.now() < total) {
    const Cycle cycle = net.now();
    for (const Cycle rc : s.resizes) {
      if (rc == cycle) net.controller().request_resize();
    }
    while (tpos < s.traffic.size() && s.traffic[tpos].cycle <= cycle) {
      const TraceEntry& e = s.traffic[tpos++];
      auto p = std::make_shared<Packet>();
      p->id = next_id++;
      p->src = e.src;
      p->dst = e.dst;
      p->num_flits = e.flits;
      net.ni(e.src).send(std::move(p), net.now());
    }
    net.tick();
  }
  const Cycle end = net.now() + 2 * s.reservation_lease_cycles;
  while (net.now() < end) net.tick();
  harvest_hybrid(net, fp);
  return fp;
}

class ThreadFixtureEquivalence : public testing::TestWithParam<const char*> {};

TEST_P(ThreadFixtureEquivalence, ReplayedStormMatchesAcrossThreadCounts) {
  const FaultScenario s = read_fault_scenario_file(fixture_path(GetParam()));
  const RunFingerprint one = replay_fixture(s, 1);
  expect_same(one, replay_fixture(s, 2));
  expect_same(one, replay_fixture(s, max_threads()));
}

INSTANTIATE_TEST_SUITE_P(Fixtures, ThreadFixtureEquivalence,
                         testing::Values("resize_race.scenario",
                                         "lost_teardown.scenario",
                                         "link_death_lease.scenario"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           std::string n = info.param;
                           return n.substr(0, n.find('.'));
                         });

// ---------------------------------------------------------------------------
// Fast-forward: merged per-shard quiescence
// ---------------------------------------------------------------------------

TEST(ThreadQuiescence, FastForwardExecutesPendingResize) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 8;

  // Twin A ticks cycle by cycle single-threaded; twin B fast-forwards the
  // same stretch with sharded wake heaps — the jump target is the minimum
  // over every shard's heap and must not skip the resize poll.
  NocConfig cfg_parallel = cfg;
  cfg_parallel.tick_threads = max_threads();
  HybridNetwork ticked(cfg);
  HybridNetwork jumped(cfg_parallel);
  for (int i = 0; i < 50; ++i) {
    ticked.tick();
    jumped.tick();
  }
  ticked.controller().request_resize();
  jumped.controller().request_resize();
  for (int i = 0; i < 5000; ++i) ticked.tick();
  jumped.fast_forward(ticked.now());

  EXPECT_EQ(jumped.now(), ticked.now());
  EXPECT_EQ(jumped.controller().resizes(), ticked.controller().resizes());
  EXPECT_EQ(jumped.controller().table_generation(),
            ticked.controller().table_generation());
  EXPECT_GE(ticked.controller().resizes(), 1);
  expect_same_energy(jumped.total_energy(), ticked.total_energy());
}

TEST(ThreadQuiescence, FastForwardExecutesLeaseExpiry) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.reservation_lease_cycles = 2048;
  NocConfig cfg_parallel = cfg;
  cfg_parallel.tick_threads = max_threads();

  HybridNetwork ticked(cfg);
  HybridNetwork jumped(cfg_parallel);
  // Orphan reservation on a router in a middle shard: only that shard's
  // lease sweep can reclaim it, so the merged quiescence must wake exactly
  // that shard at the 1024-aligned sweep past the lease.
  for (HybridNetwork* net : {&ticked, &jumped}) {
    ASSERT_TRUE(net->hybrid_router(5).slots().reserve(3, 2, Port::West,
                                                      Port::East, 77, 0));
  }
  const Cycle horizon = 3 * cfg.reservation_lease_cycles;
  while (ticked.now() < horizon) ticked.tick();
  jumped.fast_forward(horizon);

  EXPECT_EQ(jumped.now(), ticked.now());
  EXPECT_EQ(ticked.router(5).counters()[RouterCounter::ExpiredReservations],
            2u);
  EXPECT_EQ(jumped.router(5).counters()[RouterCounter::ExpiredReservations],
            2u);
  EXPECT_EQ(jumped.slot_state_digest(), ticked.slot_state_digest());
  EXPECT_EQ(jumped.total_valid_slot_entries(), 0);
  expect_same_energy(jumped.total_energy(), ticked.total_energy());
}

// ---------------------------------------------------------------------------
// Config guard
// ---------------------------------------------------------------------------

TEST(ThreadEquivalence, ValidateRejectsGatingWithThreads) {
  // vc_power_gating announcements cross router boundaries without a
  // pipelined channel, the one communication path the shard barrier cannot
  // make order-independent; the config must refuse the combination.
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.vc_power_gating = true;
  cfg.tick_threads = 4;
  EXPECT_INPUT_ERROR({ Network net(cfg); }, "vc_power_gating");
}

}  // namespace
}  // namespace hybridnoc
