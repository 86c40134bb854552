// Bit-identity of the active-set tick scheduler against the full-sweep
// oracle (full_sweep_oracle.hpp), which ticks every component every cycle.
// The active-set engine skips idle components and — via
// Network::fast_forward — whole idle cycles, folding their per-cycle energy
// constants in closed form; none of that may change a single observable
// bit. Every scenario here runs twice, once stepped by Network::tick and
// once by the oracle, and the two runs must agree exactly on:
//  * every delivered packet's id and delivery cycle (hence every latency),
//  * every EnergyCounters field (dynamic events AND closed-form idle
//    integrals: cycles, vc/slot/dlt/link active-cycle time integrals),
//  * flit-class totals and, for hybrid networks, the slot-table state
//    digest, circuit statistics and config-protocol fault accounting.
// The fault-storm and fixture-replay cases drive the protocol edge paths
// (drops, delays, duplicates, dynamic resizes) where a missed wake would
// show up as a diverged digest; the quiescence cases check fast_forward
// never jumps over a controller resize poll or a reservation-lease sweep.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "full_sweep_oracle.hpp"
#include "noc/network.hpp"
#include "run_fingerprint.hpp"
#include "tdm/fault_trace.hpp"
#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"
#include "workloads/coherence.hpp"
#include "workloads/nn_dataflow.hpp"

namespace hybridnoc {
namespace {

/// One cycle of a twin run: the engine under test, or the full-sweep oracle.
using Step = void (*)(Network&);
void engine(Network& net) { net.tick(); }
void oracle(Network& net) { FullSweepOracle::tick(net); }

/// Inject from a seeded synthetic source every cycle for `cycles` cycles.
/// The traffic stream is a pure function of (pattern, rate, seed), so both
/// twin runs see the identical schedule.
void drive_synthetic(Network& net, Step step, TrafficPattern pattern,
                     double rate, Cycle cycles, std::uint64_t seed) {
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
    step(net);
  }
}

RunFingerprint run_packet(const NocConfig& cfg, Step step,
                          TrafficPattern pattern, double rate, Cycle cycles,
                          std::uint64_t seed) {
  RunFingerprint fp;
  Network net(cfg);
  install_delivery_capture(net, fp);
  drive_synthetic(net, step, pattern, rate, cycles, seed);
  // An idle drain tail exercises component sleep on the active-set side.
  const Cycle end = net.now() + 3000;
  while (net.now() < end) step(net);
  harvest_common(net, fp);
  return fp;
}

RunFingerprint run_hybrid(const NocConfig& cfg, Step step,
                          TrafficPattern pattern, double rate, Cycle cycles,
                          std::uint64_t seed) {
  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);
  drive_synthetic(net, step, pattern, rate, cycles, seed);
  const Cycle end = net.now() + 3000;
  while (net.now() < end) step(net);
  harvest_hybrid(net, fp);
  return fp;
}

// ---------------------------------------------------------------------------
// Seeded traffic, engine and oracle
// ---------------------------------------------------------------------------

TEST(SchedulerEquivalence, PacketSwitchedUniform) {
  const NocConfig cfg = NocConfig::packet_vc4(4);
  expect_same(
      run_packet(cfg, engine, TrafficPattern::UniformRandom, 0.12, 5000, 11),
      run_packet(cfg, oracle, TrafficPattern::UniformRandom, 0.12, 5000, 11));
}

TEST(SchedulerEquivalence, PacketSwitchedHotspotWithGating) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.vc_power_gating = true;  // epoch catch-up must align exactly
  expect_same(run_packet(cfg, engine, TrafficPattern::Hotspot, 0.08, 5000, 7),
              run_packet(cfg, oracle, TrafficPattern::Hotspot, 0.08, 5000, 7));
}

TEST(SchedulerEquivalence, HybridUniform) {
  const NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  const RunFingerprint active =
      run_hybrid(cfg, engine, TrafficPattern::UniformRandom, 0.10, 6000, 21);
  // Non-vacuity: the scenario must actually exercise delivery and circuits.
  EXPECT_GT(active.delivered, 100u);
  EXPECT_GT(active.ni[NiCounter::CsPackets], 0u);
  expect_same(
      active,
      run_hybrid(cfg, oracle, TrafficPattern::UniformRandom, 0.10, 6000, 21));
}

TEST(SchedulerEquivalence, HybridSharingHotspot) {
  const NocConfig cfg = small_hybrid_cfg(/*sharing=*/true);
  expect_same(run_hybrid(cfg, engine, TrafficPattern::Hotspot, 0.08, 6000, 31),
              run_hybrid(cfg, oracle, TrafficPattern::Hotspot, 0.08, 6000, 31));
}

// ---------------------------------------------------------------------------
// Seeded fault storm, engine and oracle
// ---------------------------------------------------------------------------

RunFingerprint run_storm(Step step) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 8;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);

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
    step(net);
  }
  net.disable_config_faults();
  // Fault-free cooldown: timeouts fire, the lease reclaims orphans, and on
  // the active-set side most of the fabric goes to sleep.
  const Cycle end = net.now() + 6000;
  while (net.now() < end) step(net);
  harvest_hybrid(net, fp);
  return fp;
}

TEST(SchedulerEquivalence, SeededFaultStorm) {
  const RunFingerprint active = run_storm(engine);
  // Non-vacuity: faults and resizes must actually have fired.
  EXPECT_GT(active.faults_dropped + active.faults_delayed +
                active.faults_duplicated,
            0u);
  EXPECT_GE(active.resizes, 1);
  expect_same(active, run_storm(oracle));
}

// ---------------------------------------------------------------------------
// Seeded link-fault storm, engine and oracle
// ---------------------------------------------------------------------------

RunFingerprint run_link_fault_storm(Step step) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  // Data-plane faults: a transient bit-error rate plus a scheduled permanent
  // link death and a stuck window, recovered by CRC + end-to-end retransmit.
  // Per-hop corruption draws come from a stateless hash of
  // (seed, link, occurrence), so identical traversal orders — which is what
  // this test proves — give identical fault firings on both engines.
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

  drive_synthetic(net, step, TrafficPattern::UniformRandom, 0.08, 6000, 17);
  // Fault-free cooldown long enough for retransmission backoff tails and the
  // circuit-liveness teardowns to finish on both sides.
  const Cycle end = net.now() + 8000;
  while (net.now() < end) step(net);
  harvest_hybrid(net, fp);
  return fp;
}

TEST(SchedulerEquivalence, SeededLinkFaultStorm) {
  const RunFingerprint active = run_link_fault_storm(engine);
  // Non-vacuity: transients fired and were recovered, and the scheduled
  // link death is live in the final report.
  EXPECT_GT(active.corrupted_traversals, 0u);
  EXPECT_GT(active.router[RouterCounter::CrcFlaggedFlits], 0u);
  EXPECT_GT(active.ni[NiCounter::Retransmits], 0u);
  EXPECT_EQ(active.failed_links, 1);
  EXPECT_GT(active.delivered, 100u);
  expect_same(active, run_link_fault_storm(oracle));
}

// ---------------------------------------------------------------------------
// Workload-zoo storms, engine and oracle
// ---------------------------------------------------------------------------
// The NN-dataflow and coherence generators double as fault-storm substrates:
// their traces mix circuit-forming long-lived flows (NN bursts, coherence
// data) with circuit-ineligible short control messages, so the engines must
// agree while circuits are set up, faulted and torn down under both message
// classes at once.

const char kStormNnDag[] = R"(
# 4x4 storm pipeline: three stages, heavy recurring pairs
mesh 4
layer in   0 0 4 1
layer mid  0 1 4 2
layer out  0 3 4 1
edge in  mid 4096
edge mid out 2048
)";

std::vector<TraceEntry> storm_nn_trace() {
  const NnDescriptor d = parse_nn_descriptor_string(kStormNnDag, "storm-nn");
  NnGenParams p;
  p.iterations = 6;
  p.seed = 3;
  return generate_nn_trace(d, p);
}

std::vector<TraceEntry> storm_coherence_trace() {
  CoherenceParams p;
  p.k = 4;
  p.cycles = 3000;
  p.request_rate = 0.04;
  p.seed = 5;
  return generate_coherence_trace(p).entries;
}

/// Replay a workload trace once through (no looping). Short entries are
/// circuit-ineligible, mirroring run_trace's rule.
void drive_trace(HybridNetwork& net, Step step,
                 const std::vector<TraceEntry>& entries, int cs_data_flits) {
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
    step(net);
  }
}

RunFingerprint run_nn_storm(Step step) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 8;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);

  ConfigFaultParams p;
  p.drop_prob = 0.02;
  p.delay_prob = 0.02;
  p.dup_prob = 0.01;
  p.max_delay_cycles = 40;
  p.seed = 4321;
  net.enable_config_faults(p);
  drive_trace(net, step, storm_nn_trace(), cfg.cs_data_flits);
  net.disable_config_faults();
  const Cycle end = net.now() + 6000;
  while (net.now() < end) step(net);
  harvest_hybrid(net, fp);
  return fp;
}

TEST(SchedulerEquivalence, NnDataflowFaultStorm) {
  const RunFingerprint active = run_nn_storm(engine);
  // Non-vacuity: the pipeline delivered, its recurring pairs formed
  // circuits, and config faults actually fired against the setups.
  EXPECT_GT(active.delivered, 100u);
  EXPECT_GT(active.ni[NiCounter::CsPackets], 0u);
  EXPECT_GT(active.faults_dropped + active.faults_delayed +
                active.faults_duplicated,
            0u);
  expect_same(active, run_nn_storm(oracle));
}

RunFingerprint run_coherence_storm(Step step) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.link_ber = 1e-3;
  cfg.fault_seed = 42;
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 512;

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);
  net.ensure_fault_model().kill_link(6, Port::East, 1500);

  drive_trace(net, step, storm_coherence_trace(), cfg.cs_data_flits);
  const Cycle end = net.now() + 8000;
  while (net.now() < end) step(net);
  harvest_hybrid(net, fp);
  return fp;
}

TEST(SchedulerEquivalence, CoherenceLinkFaultStorm) {
  const RunFingerprint active = run_coherence_storm(engine);
  // Non-vacuity: bimodal traffic delivered through BER corruption, CRC
  // recovery fired, and the scheduled link death stuck.
  EXPECT_GT(active.delivered, 100u);
  EXPECT_GT(active.corrupted_traversals, 0u);
  EXPECT_GT(active.router[RouterCounter::CrcFlaggedFlits], 0u);
  EXPECT_EQ(active.failed_links, 1);
  expect_same(active, run_coherence_storm(oracle));
}

// ---------------------------------------------------------------------------
// 32x32 scale twin-runs, engine and oracle
// ---------------------------------------------------------------------------
// The run-list scheduler's O(active) sweep only pays off at scale, and its
// stale-entry pruning and mid-sweep activation heap only see real pressure
// when thousands of components wake and sleep each cycle. These runs prove
// bit-identity holds on the large mesh, not just at the 4x4 test scale.

TEST(SchedulerEquivalence, Mesh32Uniform) {
  const NocConfig cfg = NocConfig::packet_vc4(32);
  const RunFingerprint active =
      run_packet(cfg, engine, TrafficPattern::UniformRandom, 0.02, 2000, 13);
  // Non-vacuity: sparse but real traffic across the whole mesh.
  EXPECT_GT(active.delivered, 500u);
  expect_same(active, run_packet(cfg, oracle, TrafficPattern::UniformRandom,
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

RunFingerprint run_mesh32_nn(Step step) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(32);
  cfg.path_freq_threshold = 2;  // circuits form within the short trace

  RunFingerprint fp;
  HybridNetwork net(cfg);
  install_delivery_capture(net, fp);
  const NnDescriptor d = parse_nn_descriptor_string(kMesh32NnDag, "mesh32-nn");
  NnGenParams p;
  p.iterations = 4;
  p.seed = 9;
  drive_trace(net, step, generate_nn_trace(d, p), cfg.cs_data_flits);
  const Cycle end = net.now() + 3000;
  while (net.now() < end) step(net);
  harvest_hybrid(net, fp);
  return fp;
}

TEST(SchedulerEquivalence, Mesh32NnDataflow) {
  const RunFingerprint active = run_mesh32_nn(engine);
  // Non-vacuity: the pipeline delivered and its recurring pairs formed
  // circuits on the large mesh.
  EXPECT_GT(active.delivered, 100u);
  EXPECT_GT(active.ni[NiCounter::CsPackets], 0u);
  expect_same(active, run_mesh32_nn(oracle));
}

// ---------------------------------------------------------------------------
// Replayed shrunk fixtures, engine and oracle
// ---------------------------------------------------------------------------

RunFingerprint replay_fixture(const FaultScenario& s, Step step) {
  const NocConfig cfg = s.to_config();
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
    step(net);
  }
  // One reservation lease of quiet time so orphaned entries expire (the
  // lost_teardown fixture's whole point) with the fabric mostly asleep.
  const Cycle end = net.now() + 2 * s.reservation_lease_cycles;
  while (net.now() < end) step(net);
  harvest_hybrid(net, fp);
  return fp;
}

class FixtureEquivalence : public testing::TestWithParam<const char*> {};

TEST_P(FixtureEquivalence, ReplayedStormMatchesAcrossEngines) {
  const FaultScenario s = read_fault_scenario_file(fixture_path(GetParam()));
  expect_same(replay_fixture(s, engine), replay_fixture(s, oracle));
}

INSTANTIATE_TEST_SUITE_P(Fixtures, FixtureEquivalence,
                         testing::Values("resize_race.scenario",
                                         "lost_teardown.scenario",
                                         "link_death_lease.scenario"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           std::string n = info.param;
                           return n.substr(0, n.find('.'));
                         });

// ---------------------------------------------------------------------------
// The oracle can see a missed wake
// ---------------------------------------------------------------------------
// Every case above would pass if the oracle matched the active-set engine
// no matter what. A router that never reports a next event sleeps through
// its own gating epochs, so on an idle VC-gated mesh it never powers its
// spare VCs down. The oracle never asks, so it must stay on the correct run
// while the active-set engine drifts from it. (With traffic the same router
// would also sleep through channel fronts and trip the channel's
// unconsumed-item check instead.)

class SleepyRouter : public Router {
 public:
  using Router::Router;
  Cycle sched_next_event(Cycle now) const override {
    (void)now;
    return kCycleNever;
  }
};

template <typename RouterT>
RunFingerprint run_idle_gated(Step step) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.vc_power_gating = true;
  RunFingerprint fp;
  Network net(
      cfg,
      [](const NocConfig& c, NodeId n, const Mesh& m) -> std::unique_ptr<Router> {
        return std::make_unique<RouterT>(c, n, m);
      },
      [](const NocConfig& c, NodeId n, const Mesh& m) {
        return std::make_unique<NetworkInterface>(c, n, m);
      });
  while (net.now() < 5000) step(net);
  harvest_common(net, fp);
  return fp;
}

TEST(SchedulerEquivalence, OracleCatchesDroppedWake) {
  // The oracle never calls sched_next_event, so with sleepy routers it still
  // reproduces the engine on plain ones.
  const RunFingerprint reference = run_idle_gated<SleepyRouter>(oracle);
  expect_same(reference, run_idle_gated<Router>(engine));
  // The engine with sleepy routers must differ from it in at least one field.
  testing::TestPartResultArray mismatches;
  {
    testing::ScopedFakeTestPartResultReporter capture(
        testing::ScopedFakeTestPartResultReporter::INTERCEPT_ONLY_CURRENT_THREAD,
        &mismatches);
    expect_same(run_idle_gated<SleepyRouter>(engine), reference);
  }
  EXPECT_GT(mismatches.size(), 0);
}

// ---------------------------------------------------------------------------
// Quiescence: fast_forward must not skip controller or lease boundaries
// ---------------------------------------------------------------------------

TEST(SchedulerQuiescence, FastForwardExecutesPendingResize) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 8;

  // Twin A ticks cycle by cycle; twin B fast-forwards over the same idle
  // stretch. The resize request lands mid-stretch on both.
  HybridNetwork ticked(cfg);
  HybridNetwork jumped(cfg);
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
  EXPECT_EQ(jumped.controller().active_slots(),
            ticked.controller().active_slots());
  EXPECT_GE(ticked.controller().resizes(), 1);
  // The closed-form energy folding must account the resize exactly: the
  // slot-table leakage rate changes when the active region doubles.
  expect_same_energy(jumped.total_energy(), ticked.total_energy());
}

TEST(SchedulerQuiescence, FastForwardExecutesLeaseExpiry) {
  NocConfig cfg = small_hybrid_cfg(/*sharing=*/false);
  cfg.reservation_lease_cycles = 2048;

  HybridNetwork ticked(cfg);
  HybridNetwork jumped(cfg);
  // Plant an orphan reservation before the first tick (while everything is
  // still active, as a real config message would find it): with no traffic
  // ever refreshing it, only the routers' lease sweep can reclaim it — at a
  // 1024-aligned cycle past the lease. fast_forward must wake the router
  // for exactly that sweep.
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

TEST(SchedulerQuiescence, FastForwardMatchesTickOnIdleNetwork) {
  // Pure closed-form check: an idle network fast-forwarded 10k cycles must
  // report exactly the energy integrals of 10k live no-op ticks.
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.vc_power_gating = true;
  Network ticked(cfg);
  Network jumped(cfg);
  for (int i = 0; i < 10000; ++i) ticked.tick();
  jumped.fast_forward(10000);
  EXPECT_EQ(jumped.now(), ticked.now());
  expect_same_energy(jumped.total_energy(), ticked.total_energy());
}

}  // namespace
}  // namespace hybridnoc
