// Data-plane fault tolerance on the TDM hybrid network: circuit liveness
// (dead-link detection, teardown, re-establishment over a fault-aware
// route), lease reclaim of the stale per-hop reservations a dead link
// strands, setup-retry backoff with give-up accounting, the v2 fault-trace
// format carrying hardware faults, and bit-identity of zero-fault runs with
// the fault layer's hooks installed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>

#include "common/config.hpp"
#include "noc/fault_model.hpp"
#include "tdm/fault_trace.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {
namespace {

NocConfig hybrid_fault_cfg() {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  cfg.slot_table_size = 32;
  cfg.initial_active_slots = 16;
  cfg.path_freq_threshold = 2;  // circuits form quickly at test scale
  cfg.policy_epoch_cycles = 128;
  // Idle retirement well inside the lease, so sources tear their own idle
  // circuits down (clean audit) before the routers' backstop reclaims them.
  cfg.path_idle_timeout = 1024;
  cfg.reservation_lease_cycles = 2048;
  return cfg;
}

void send_packet(HybridNetwork& net, PacketId id, NodeId src, NodeId dst,
                 int flits = 5) {
  auto p = std::make_shared<Packet>();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->num_flits = flits;
  net.ni(src).send(std::move(p), net.now());
}

/// Freeze proactive setup, drain every flit/ack, then run three reservation
/// leases so any stranded slot entries expire — the scenario runner's end
/// phase, inlined for direct-drive tests.
void settle(HybridNetwork& net) {
  net.set_policy_frozen(true);
  for (int i = 0; i < 200000 && !net.quiescent(); ++i) net.tick();
  ASSERT_TRUE(net.quiescent());
  const Cycle end = net.now() + 3 * net.cfg().reservation_lease_cycles;
  while (net.now() < end) net.tick();
}

// ---------------------------------------------------------------------------
// Transient storm over live circuits
// ---------------------------------------------------------------------------

TEST(HybridDataFault, BerStormDeliversEverythingAndSettlesClean) {
  NocConfig cfg = hybrid_fault_cfg();
  cfg.link_ber = 1e-3;
  cfg.fault_seed = 9;
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 256;
  cfg.retx_backoff_cap_cycles = 2048;
  HybridNetwork net(cfg);
  // Three hot pairs so circuits form and keep carrying traffic through the
  // storm; corrupted CS flits exercise the missed-slot/liveness machinery.
  // Load stays light enough that delivery latency never approaches the
  // retransmit timeout: every retransmit below is loss-driven, not spurious.
  const NodeId pairs[][2] = {{0, 15}, {12, 3}, {5, 10}};
  PacketId id = 1;
  while (net.now() < 6000) {
    if (net.now() % 9 == 0) {
      for (const auto& pr : pairs) send_packet(net, id++, pr[0], pr[1]);
    }
    net.tick();
  }
  settle(net);

  const NiCounters ni = net.ni_counters();
  EXPECT_EQ(ni[NiCounter::DataPacketsSent], static_cast<std::uint64_t>(id - 1));
  // The acceptance bar: every packet sent was delivered.
  EXPECT_EQ(ni[NiCounter::DataPacketsDelivered], ni[NiCounter::DataPacketsSent]);
  EXPECT_GT(net.router_counters()[RouterCounter::CrcFlaggedFlits], 0u);
  EXPECT_GT(ni[NiCounter::CrcSquashedPackets], 0u);
  EXPECT_GT(ni[NiCounter::Retransmits], 0u);
  EXPECT_EQ(ni[NiCounter::RetxGiveUps], 0u);
  EXPECT_EQ(net.degradation_report().e2e_outstanding, 0u);
  EXPECT_GT(ni[NiCounter::CsPackets], 0u);  // circuits actually carried load
  const ReservationAudit audit = net.audit_reservations();
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(net.total_valid_slot_entries(), 0);
  EXPECT_EQ(net.total_active_connections(), 0);
}

// ---------------------------------------------------------------------------
// Dead link under an installed circuit
// ---------------------------------------------------------------------------

TEST(HybridDataFault, DeadLinkTearsDownCircuitReestablishesAndReclaims) {
  NocConfig cfg = hybrid_fault_cfg();
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 256;
  cfg.retx_backoff_cap_cycles = 2048;
  cfg.cs_fail_threshold = 2;
  HybridNetwork net(cfg);
  // 3 -> 15 runs straight down the east column (3, 7, 11, 15); the circuit
  // has exactly one minimal path, so it must cross the link we will kill.
  net.ensure_fault_model().kill_link(7, Port::South, 2500);

  PacketId id = 1;
  std::uint64_t cs_at_kill = 0;
  std::uint64_t corrupted_settled = 0;
  while (net.now() < 9000) {
    if (net.now() == 2500) {
      // Non-vacuity: the circuit is up before the link dies.
      EXPECT_GE(net.total_active_connections(), 1);
      cs_at_kill = net.ni_counters()[NiCounter::CsPackets];
      EXPECT_GT(cs_at_kill, 0u);
    }
    if (net.now() == 7000) {
      // Recovery has settled: the re-established circuit and the PS detour
      // both avoid the dead link, so corruption stops accumulating.
      corrupted_settled = net.fault_model()->corrupted_traversals();
      EXPECT_GE(net.ni_counters()[NiCounter::CsFaultTeardowns], 1u);
    }
    if (net.now() % 6 == 0) send_packet(net, id++, 3, 15);
    net.tick();
  }
  EXPECT_EQ(net.fault_model()->corrupted_traversals(), corrupted_settled);
  // The re-established circuit carried traffic after the kill.
  EXPECT_GT(net.ni_counters()[NiCounter::CsPackets], cs_at_kill);
  settle(net);

  const NiCounters ni = net.ni_counters();
  EXPECT_EQ(ni[NiCounter::DataPacketsSent], static_cast<std::uint64_t>(id - 1));
  EXPECT_EQ(ni[NiCounter::DataPacketsDelivered], ni[NiCounter::DataPacketsSent]);
  EXPECT_EQ(ni[NiCounter::RetxGiveUps], 0u);
  EXPECT_EQ(net.degradation_report().failed_links, 1);
  EXPECT_GE(net.ni(3).counters()[NiCounter::CsFaultTeardowns], 1u);
  // The teardown died crossing the dead link, so the reservations past it
  // could only have been reclaimed by the routers' lease backstop.
  EXPECT_GT(net.router_counters()[RouterCounter::ExpiredReservations], 0u);
  const ReservationAudit audit = net.audit_reservations();
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(net.total_valid_slot_entries(), 0);
  EXPECT_EQ(net.total_active_connections(), 0);
}

// ---------------------------------------------------------------------------
// Setup-retry backoff and give-up accounting
// ---------------------------------------------------------------------------

TEST(HybridDataFault, SetupBackoffRetriesThenGivesUpIntoCooldown) {
  NocConfig cfg = hybrid_fault_cfg();
  // An 8-slot table holds very few windows; four sources converging on one
  // destination guarantee setup conflicts (AckFailures), so retries run
  // through the backoff queue and the retry budget must eventually run out.
  cfg.slot_table_size = 8;
  cfg.initial_active_slots = 8;
  cfg.max_windows_per_pair = 1;
  cfg.max_setup_retries = 2;
  cfg.setup_backoff_base_cycles = 16;
  cfg.setup_backoff_cap_cycles = 128;
  HybridNetwork net(cfg);
  const NodeId dst = 14;
  const NodeId sources[] = {0, 1, 2, 3};
  PacketId id = 1;
  while (net.now() < 20000) {
    for (std::size_t i = 0; i < 4; ++i) {
      if (net.now() % 16 == 4 * i) send_packet(net, id++, sources[i], dst);
    }
    net.tick();
  }
  settle(net);

  EXPECT_GT(net.ni_counters()[NiCounter::SetupFailures], 0u);
  EXPECT_GE(net.ni_counters()[NiCounter::SetupGiveUps], 1u);
  // The workload was untouched: losers fell back to packet switching.
  EXPECT_EQ(net.ni_counters()[NiCounter::DataPacketsDelivered],
            static_cast<std::uint64_t>(id - 1));
  EXPECT_EQ(net.total_valid_slot_entries(), 0);
  EXPECT_TRUE(net.audit_reservations().clean());
}

// ---------------------------------------------------------------------------
// v2 trace format: data-plane fault records
// ---------------------------------------------------------------------------

FaultTrace v2_trace() {
  FaultTrace t;
  t.records.push_back({12, 34, ConfigKind::Setup, 0, 23, 0, FaultAction::Drop, 0});
  // Link faults: src = upstream node, dst = output-port index.
  t.records.push_back(
      {2500, 0, ConfigKind::Link, 7, 3, 0, FaultAction::Kill, 0});
  t.records.push_back(
      {100, 0, ConfigKind::Link, 4, 2, 0, FaultAction::Stuck, 600});
  t.records.push_back(
      {731, 0, ConfigKind::Link, 4, 2, 17, FaultAction::Corrupt, 0});
  t.records.push_back(
      {4000, 0, ConfigKind::Router, 9, 0, 0, FaultAction::Kill, 0});
  return t;
}

TEST(FaultTraceV2, DataPlaneRecordsRoundTrip) {
  const FaultTrace orig = v2_trace();
  std::stringstream buf;
  save_fault_trace(buf, orig);
  EXPECT_NE(buf.str().find("v2"), std::string::npos);
  EXPECT_EQ(load_fault_trace(buf), orig);
  EXPECT_EQ(orig.active_faults(), 5u);
}

TEST(FaultTraceV2, ScenarioDataFaultFieldsRoundTrip) {
  FaultScenario s;
  s.k = 4;
  s.link_ber = 1e-3;
  s.link_fault_seed = 77;
  s.e2e_recovery = true;
  s.retx_timeout_cycles = 96;
  s.retx_backoff_cap_cycles = 768;
  s.max_retx_attempts = 5;
  s.cs_fail_threshold = 2;
  s.watchdog_stall_cycles = 3000;
  s.setup_backoff_base_cycles = 16;
  s.setup_backoff_cap_cycles = 256;
  s.dead_links = {{7, 3, 2500, 0}};
  s.stuck_links = {{4, 2, 100, 600}};
  s.dead_routers = {{9, 4000}};
  s.faults = v2_trace();

  std::stringstream buf;
  save_fault_scenario(buf, s);
  const FaultScenario r = load_fault_scenario(buf);
  EXPECT_DOUBLE_EQ(r.link_ber, s.link_ber);
  EXPECT_EQ(r.link_fault_seed, s.link_fault_seed);
  EXPECT_EQ(r.e2e_recovery, s.e2e_recovery);
  EXPECT_EQ(r.retx_timeout_cycles, s.retx_timeout_cycles);
  EXPECT_EQ(r.retx_backoff_cap_cycles, s.retx_backoff_cap_cycles);
  EXPECT_EQ(r.max_retx_attempts, s.max_retx_attempts);
  EXPECT_EQ(r.cs_fail_threshold, s.cs_fail_threshold);
  EXPECT_EQ(r.watchdog_stall_cycles, s.watchdog_stall_cycles);
  EXPECT_EQ(r.setup_backoff_base_cycles, s.setup_backoff_base_cycles);
  EXPECT_EQ(r.setup_backoff_cap_cycles, s.setup_backoff_cap_cycles);
  ASSERT_EQ(r.dead_links.size(), 1u);
  EXPECT_EQ(r.dead_links[0].node, 7);
  EXPECT_EQ(r.dead_links[0].port, 3);
  EXPECT_EQ(r.dead_links[0].start, 2500u);
  ASSERT_EQ(r.stuck_links.size(), 1u);
  EXPECT_EQ(r.stuck_links[0].duration, 600u);
  ASSERT_EQ(r.dead_routers.size(), 1u);
  EXPECT_EQ(r.dead_routers[0].first, 9);
  EXPECT_EQ(r.dead_routers[0].second, 4000u);
  EXPECT_EQ(r.faults, s.faults);

  // The config the scenario hands the network carries the same knobs.
  const NocConfig cfg = r.to_config();
  EXPECT_DOUBLE_EQ(cfg.link_ber, s.link_ber);
  EXPECT_EQ(cfg.fault_seed, s.link_fault_seed);
  EXPECT_TRUE(cfg.e2e_recovery);
  EXPECT_EQ(cfg.cs_fail_threshold, 2);
  EXPECT_EQ(cfg.setup_backoff_base_cycles, 16u);
}

TEST(FaultTraceV2DeathTest, RejectsMalformedDataPlaneRecords) {
  // Port index out of range for a link fault (Local = 0 is not a link).
  std::istringstream bad_port(
      "hybridnoc-fault-trace v2\n"
      "10 0 link 7 0 0 kill 0\n");
  EXPECT_DEATH((void)load_fault_trace(bad_port), "link fault port");
  std::istringstream bad_port_high(
      "hybridnoc-fault-trace v2\n"
      "10 0 link 7 5 0 kill 0\n");
  EXPECT_DEATH((void)load_fault_trace(bad_port_high), "link fault port");
  // Config-message actions on hardware records and vice versa.
  std::istringstream link_drop(
      "hybridnoc-fault-trace v2\n"
      "10 0 link 7 3 0 drop 0\n");
  EXPECT_DEATH((void)load_fault_trace(link_drop), "link fault action");
  std::istringstream router_stuck(
      "hybridnoc-fault-trace v2\n"
      "10 0 router 7 0 0 stuck 4\n");
  EXPECT_DEATH((void)load_fault_trace(router_stuck), "router fault action");
  std::istringstream setup_kill(
      "hybridnoc-fault-trace v2\n"
      "10 0 setup 0 15 0 kill 0\n");
  EXPECT_DEATH((void)load_fault_trace(setup_kill),
               "data-plane action on a config record");
  // A v1 loader rejects nothing new: v1 files still load (covered by the
  // round-trip tests in fault_replay_test), but a future version does not.
  std::istringstream v3(
      "hybridnoc-fault-trace v3\n");
  EXPECT_DEATH((void)load_fault_trace(v3), "version");
}

// ---------------------------------------------------------------------------
// Recorded data-plane storms replay from the trace alone
// ---------------------------------------------------------------------------

TEST(FaultTraceV2, RecordedLinkFaultStormReplaysFromTrace) {
  FaultScenario s;
  s.k = 4;
  s.slot_table_size = 32;
  s.initial_active_slots = 16;
  s.path_freq_threshold = 2;
  s.policy_epoch_cycles = 128;
  s.reservation_lease_cycles = 2048;
  s.run_cycles = 4000;
  s.cooldown_cycles = 2000;
  s.link_ber = 1e-3;
  s.link_fault_seed = 21;
  s.e2e_recovery = true;
  s.retx_timeout_cycles = 256;
  s.retx_backoff_cap_cycles = 2048;
  s.cs_fail_threshold = 2;
  s.dead_links = {{7, static_cast<int>(Port::South), 2000, 0}};
  for (Cycle c = 0; c < s.run_cycles + s.cooldown_cycles; c += 6) {
    s.traffic.push_back({c, 3, 15, 5});
    s.traffic.push_back({c, 12, 0, 5});
  }

  const ScenarioOutcome rec =
      run_fault_scenario(s, ScenarioMode::Record, false, &s.faults);
  EXPECT_TRUE(rec.quiesced);
  EXPECT_EQ(rec.ni[NiCounter::DataPacketsDelivered],
            rec.ni[NiCounter::DataPacketsSent]);
  EXPECT_GE(rec.ni[NiCounter::CsFaultTeardowns], 1u);
  EXPECT_GT(rec.router[RouterCounter::CrcFlaggedFlits], 0u);
  EXPECT_EQ(rec.failed_links, 1);
  // The trace now carries the kill and every fired transient.
  bool has_kill = false, has_corrupt = false;
  for (const auto& r : s.faults.records) {
    if (r.kind == ConfigKind::Link && r.action == FaultAction::Kill)
      has_kill = true;
    if (r.kind == ConfigKind::Link && r.action == FaultAction::Corrupt)
      has_corrupt = true;
  }
  EXPECT_TRUE(has_kill);
  EXPECT_TRUE(has_corrupt);
  EXPECT_TRUE(violates_invariant("no-fault-teardowns", rec));

  // Replay re-derives the hardware faults from the trace (no BER hash, no
  // schedule fields) and reproduces the storm's outcome.
  const ScenarioOutcome rep = run_fault_scenario(s, ScenarioMode::Replay);
  EXPECT_TRUE(rep.quiesced);
  EXPECT_EQ(rep.ni, rec.ni) << first_difference(rep.ni, rec.ni);
  EXPECT_EQ(rep.router, rec.router) << first_difference(rep.router, rec.router);
  EXPECT_EQ(rep.slot_state_digest, rec.slot_state_digest);
  EXPECT_EQ(rep.failed_links, rec.failed_links);
}

// ---------------------------------------------------------------------------
// Zero-fault bit-identity
// ---------------------------------------------------------------------------

/// Drive a deterministic workload and fingerprint everything cheap to
/// compare; `install_model` pre-creates the FaultModel (hooks armed on every
/// router and NI) without scheduling any fault.
struct Fingerprint {
  std::uint64_t digest = 0;
  NiCounters ni;
  RouterCounters router;
  std::uint64_t buffer_writes = 0;
  std::uint64_t link_flits = 0;
  std::uint64_t cycles = 0;
  std::map<PacketId, Cycle> deliveries;
};

Fingerprint run_zero_fault(bool install_model) {
  const NocConfig cfg = hybrid_fault_cfg();
  HybridNetwork net(cfg);
  if (install_model) net.ensure_fault_model();
  Fingerprint fp;
  net.set_deliver_handler(
      [&fp](const PacketPtr& p, Cycle at) { fp.deliveries.emplace(p->id, at); });
  PacketId id = 1;
  while (net.now() < 4000) {
    if (net.now() % 3 == 0) {
      send_packet(net, id++, 0, 15);
      send_packet(net, id++, 10, 5);
    }
    net.tick();
  }
  const Cycle end = net.now() + 3000;
  while (net.now() < end) net.tick();
  fp.digest = net.slot_state_digest();
  fp.ni = net.ni_counters();
  fp.router = net.router_counters();
  const EnergyCounters e = net.total_energy();
  fp.buffer_writes = e.buffer_writes;
  fp.link_flits = e.link_flits;
  fp.cycles = e.cycles;
  return fp;
}

TEST(HybridDataFault, FaultFreeModelIsBitIdenticalToNoModel) {
  const Fingerprint bare = run_zero_fault(false);
  const Fingerprint armed = run_zero_fault(true);
  EXPECT_EQ(bare.digest, armed.digest);
  EXPECT_EQ(bare.ni, armed.ni) << first_difference(bare.ni, armed.ni);
  EXPECT_EQ(bare.router, armed.router)
      << first_difference(bare.router, armed.router);
  EXPECT_EQ(bare.buffer_writes, armed.buffer_writes);
  EXPECT_EQ(bare.link_flits, armed.link_flits);
  EXPECT_EQ(bare.cycles, armed.cycles);
  EXPECT_EQ(bare.deliveries, armed.deliveries);
  EXPECT_GT(bare.ni[NiCounter::CsPackets], 0u);  // the workload used circuits
}

}  // namespace
}  // namespace hybridnoc
