// Deterministic replay of shrunk config-fault regression fixtures, plus the
// fault-trace subsystem itself: serialization round-trips, record/replay
// composition on a live network, and the ddmin shrinker.
//
// The two fixtures under tests/tdm/fixtures/ were produced by recording a
// seeded 10k-cycle storm with tools/shrink_fault_trace and delta-debugging
// it down to a single fault decision each:
//  * resize_race.scenario — one setup DELAYED so it straddles the dynamic
//    slot-table resize at cycle 3000 and is discarded by the generation
//    fence (invariant violated: no-stale-config-drops).
//  * lost_teardown.scenario — one teardown DROPPED, orphaning its
//    reservations until the router lease reclaims them (invariant
//    violated: no-expired-reservations).
// Each replay must still reproduce its violation, keep every installed
// window walkable after every config event, and converge to a clean state.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "expect_input_error.hpp"
#include "tdm/fault_trace.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(HN_FIXTURE_DIR) + "/" + name;
}

TEST(FaultScenario, MalformedLineNamesSourceAndLine) {
  std::istringstream in(
      "hybridnoc-fault-scenario v2\n"
      "k 4\n"
      "traffic 2\n"
      "0 1 14 5\n"
      "7 2 13\n"
      "end\n");
  const std::string what =
      input_error([&] { (void)load_fault_scenario(in, "s.scenario"); });
  EXPECT_TRUE(what.starts_with("s.scenario:5: malformed scenario traffic entry"))
      << what;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

FaultTrace sample_trace() {
  FaultTrace t;
  t.records.push_back({12, 34, ConfigKind::Setup, 0, 23, 0, FaultAction::Drop, 0});
  t.records.push_back({40, 35, ConfigKind::AckSuccess, 23, 0, 1, FaultAction::Delay, 17});
  t.records.push_back({41, 36, ConfigKind::Teardown, 5, 7, 2, FaultAction::Duplicate, 0});
  t.records.push_back({99, 37, ConfigKind::Setup, 1, 2, 0, FaultAction::None, 0});
  return t;
}

TEST(FaultTrace, SaveLoadRoundTrip) {
  const FaultTrace orig = sample_trace();
  std::stringstream buf;
  save_fault_trace(buf, orig);
  EXPECT_EQ(load_fault_trace(buf), orig);
  EXPECT_EQ(orig.active_faults(), 3u);
}

TEST(FaultTrace, ParseWriteParseEquality) {
  std::istringstream in(
      "hybridnoc-fault-trace v1\n"
      "# comment\n"
      "12 34 setup 0 23 0 drop 0\n"
      "\n"
      "40 35 ack+ 23 0 1 delay 17  # trailing comment\n");
  const FaultTrace first = load_fault_trace(in);
  ASSERT_EQ(first.records.size(), 2u);
  std::stringstream buf;
  save_fault_trace(buf, first);
  EXPECT_EQ(load_fault_trace(buf), first);
}

TEST(FaultTraceDeathTest, RejectsMalformedAndUnversioned) {
  std::istringstream bad_header("not-a-trace v1\n");
  EXPECT_INPUT_ERROR((void)load_fault_trace(bad_header), "header");
  std::istringstream bad_version("hybridnoc-fault-trace v99\n");
  EXPECT_INPUT_ERROR((void)load_fault_trace(bad_version), "version");
  std::istringstream truncated(
      "hybridnoc-fault-trace v1\n"
      "12 34 setup 0 23\n");
  EXPECT_INPUT_ERROR((void)load_fault_trace(truncated), "malformed");
  std::istringstream bad_kind(
      "hybridnoc-fault-trace v1\n"
      "12 34 warble 0 23 0 drop 0\n");
  EXPECT_INPUT_ERROR((void)load_fault_trace(bad_kind), "kind");
  std::istringstream bad_action(
      "hybridnoc-fault-trace v1\n"
      "12 34 setup 0 23 0 explode 0\n");
  EXPECT_INPUT_ERROR((void)load_fault_trace(bad_action), "action");
}

TEST(FaultTrace, MalformedLineNamesSourceAndLine) {
  std::istringstream in(
      "hybridnoc-fault-trace v2\n"
      "# cycle msg_id kind src dst occurrence action delay\n"
      "12 34 setup 0 23 0 drop 0\n"
      "12 34 setup 0 23\n");
  const std::string what =
      input_error([&] { (void)load_fault_trace(in, "storm.trace"); });
  EXPECT_TRUE(what.starts_with("storm.trace:4: malformed fault-trace record"))
      << what;
}

// fault_record_key packs src, dst and occurrence into 20 bits each, so a
// loaded record must fit them.
TEST(FaultTrace, RecordFieldsBeyondReplayKeyAreRejected) {
  for (const char* record : {"12 34 setup 1048576 23 0 drop 0\n",
                             "12 34 setup 0 1048576 0 drop 0\n",
                             "12 34 setup 0 23 1048576 drop 0\n"}) {
    std::istringstream in(std::string("hybridnoc-fault-trace v2\n") + record);
    EXPECT_INPUT_ERROR((void)load_fault_trace(in), "invalid fault-trace record");
  }
}

TEST(FaultScenario, SaveLoadRoundTrip) {
  FaultScenario s;
  s.k = 4;
  s.slot_table_size = 32;
  s.dynamic_slot_sizing = true;
  s.initial_active_slots = 8;
  s.run_cycles = 5000;
  s.cooldown_cycles = 1000;
  s.resizes = {1200, 3400};
  s.fault_params.drop_prob = 0.125;
  s.fault_params.seed = 42;
  s.invariant = "no-pending-timeouts";
  s.traffic = {{0, 1, 14, 5}, {7, 2, 13, 5}, {7, 1, 14, 4}};
  s.faults = sample_trace();

  std::stringstream buf;
  save_fault_scenario(buf, s);
  const FaultScenario r = load_fault_scenario(buf);
  EXPECT_EQ(r.k, s.k);
  EXPECT_EQ(r.slot_table_size, s.slot_table_size);
  EXPECT_EQ(r.dynamic_slot_sizing, s.dynamic_slot_sizing);
  EXPECT_EQ(r.initial_active_slots, s.initial_active_slots);
  EXPECT_EQ(r.run_cycles, s.run_cycles);
  EXPECT_EQ(r.cooldown_cycles, s.cooldown_cycles);
  EXPECT_EQ(r.resizes, s.resizes);
  EXPECT_DOUBLE_EQ(r.fault_params.drop_prob, s.fault_params.drop_prob);
  EXPECT_EQ(r.fault_params.seed, s.fault_params.seed);
  EXPECT_EQ(r.invariant, s.invariant);
  EXPECT_EQ(r.traffic, s.traffic);
  EXPECT_EQ(r.faults, s.faults);
}

TEST(FaultScenarioDeathTest, RejectsUnknownFieldAndMissingEnd) {
  std::istringstream unknown(
      "hybridnoc-fault-scenario v1\n"
      "warp_factor 9\n"
      "end\n");
  EXPECT_INPUT_ERROR((void)load_fault_scenario(unknown), "unknown scenario field");
  std::istringstream no_end(
      "hybridnoc-fault-scenario v1\n"
      "k 4\n");
  EXPECT_INPUT_ERROR((void)load_fault_scenario(no_end), "end marker");
}

// ---------------------------------------------------------------------------
// Record/replay on a live network
// ---------------------------------------------------------------------------

// Counter-reset satellite: two enable_config_faults runs on one network must
// not accumulate stale fault counts.
TEST(FaultReplay, EnableConfigFaultsResetsCounters) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  cfg.path_freq_threshold = 2;
  cfg.policy_epoch_cycles = 128;
  HybridNetwork net(cfg);
  ConfigFaultParams faults;
  faults.dup_prob = 1.0;
  net.enable_config_faults(faults);
  PacketId id = 1;
  for (int cycle = 0; cycle < 600; ++cycle) {
    if (cycle % 4 == 0) {
      auto p = std::make_shared<Packet>();
      p->id = id++;
      p->src = 0;
      p->dst = 15;
      p->num_flits = 5;
      net.ni(0).send(std::move(p), net.now());
    }
    net.tick();
  }
  const std::uint64_t first = net.faults_duplicated();
  ASSERT_GT(first, 0u);
  net.enable_config_faults(faults);  // re-arm: counters restart from zero
  EXPECT_EQ(net.faults_duplicated(), 0u);
  EXPECT_EQ(net.faults_dropped(), 0u);
  EXPECT_EQ(net.faults_delayed(), 0u);
}

// Recording with no faults enabled captures the protocol's dispatch
// sequence as all-None records, keyed by per-(kind,src,dst) occurrence.
TEST(FaultReplay, RecordingCapturesDispatchSequence) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  cfg.path_freq_threshold = 2;
  cfg.policy_epoch_cycles = 128;
  HybridNetwork net(cfg);
  net.start_fault_trace_recording();
  PacketId id = 1;
  for (int cycle = 0; cycle < 400; ++cycle) {
    if (cycle % 4 == 0) {
      auto p = std::make_shared<Packet>();
      p->id = id++;
      p->src = 0;
      p->dst = 15;
      p->num_flits = 5;
      net.ni(0).send(std::move(p), net.now());
    }
    net.tick();
  }
  net.stop_fault_trace_recording();
  const FaultTrace& t = net.recorded_fault_trace();
  ASSERT_GE(t.records.size(), 2u);  // at least the setup and its ack
  EXPECT_EQ(t.active_faults(), 0u);
  EXPECT_EQ(t.records[0].kind, ConfigKind::Setup);
  EXPECT_EQ(t.records[0].src, 0);
  EXPECT_EQ(t.records[0].dst, 15);
  EXPECT_EQ(t.records[0].occurrence, 0);
  EXPECT_GT(t.records[0].cycle, 0u);
  // The success ack comes back from the destination.
  const auto ack = std::find_if(
      t.records.begin(), t.records.end(),
      [](const FaultRecord& r) { return r.kind == ConfigKind::AckSuccess; });
  ASSERT_NE(ack, t.records.end());
  EXPECT_EQ(ack->src, 15);
  EXPECT_EQ(ack->dst, 0);
  EXPECT_EQ(ack->occurrence, 0);
}

// ---------------------------------------------------------------------------
// Shrunk regression fixtures
// ---------------------------------------------------------------------------

struct FixtureCase {
  const char* file;
  const char* invariant;
};

// Without this gtest prints the raw bytes of the case, which include the
// ASLR-randomised string pointers, so the listed test name would change from
// one run to the next.
void PrintTo(const FixtureCase& fc, std::ostream* os) {
  *os << fc.file << " expects " << fc.invariant;
}

class FaultFixture : public testing::TestWithParam<FixtureCase> {};

TEST_P(FaultFixture, ReplayReproducesViolationAndStaysAuditClean) {
  const FixtureCase& fc = GetParam();
  const FaultScenario s = read_fault_scenario_file(fixture_path(fc.file));
  ASSERT_EQ(s.invariant, fc.invariant);
  ASSERT_EQ(s.faults.active_faults(), s.faults.records.size())
      << "fixtures carry only the minimal fault subset";
  const ScenarioOutcome o =
      run_fault_scenario(s, ScenarioMode::Replay, /*audit_each_event=*/true);
  // The shrunk fault subset still lands on its protocol events. Hardware
  // records (Link/Router) are re-derived as physical faults rather than
  // applied to config dispatches, so only the config-plane records count
  // toward replay_applied.
  std::size_t config_faults = 0;
  for (const FaultRecord& r : s.faults.records) {
    if (r.kind != ConfigKind::Link && r.kind != ConfigKind::Router) {
      ++config_faults;
    }
  }
  EXPECT_EQ(o.replay_applied, config_faults);
  // ...and still reproduces the violation it was minimized for.
  EXPECT_TRUE(violates_invariant(s.invariant, o));
  // Every installed window stayed walkable after every config event — the
  // per-event reservation audit saw no broken windows anywhere in the run.
  EXPECT_EQ(o.replay_audit_failures, 0u);
  // The protocol recovered: the network converged to a clean final state.
  EXPECT_TRUE(o.quiesced);
  EXPECT_EQ(o.broken_windows, 0);
  EXPECT_EQ(o.orphan_entries, 0);
  EXPECT_EQ(o.valid_slot_entries, 0);
  EXPECT_EQ(o.active_connections, 0);
  EXPECT_EQ(o.config_in_flight, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShrunkFixtures, FaultFixture,
    testing::Values(FixtureCase{"resize_race.scenario", "no-stale-config-drops"},
                    FixtureCase{"lost_teardown.scenario",
                                "no-expired-reservations"},
                    FixtureCase{"link_death_lease.scenario",
                                "no-fault-teardowns"}),
    [](const testing::TestParamInfo<FixtureCase>& info) {
      switch (info.index) {
        case 0: return "ResizeRace";
        case 1: return "LostTeardown";
        default: return "LinkDeathLease";
      }
    });

// The resize-race fixture's single fault is a DELAYED setup whose late
// arrival crosses the generation bump; the lost-teardown fixture's is a
// DROPPED teardown. Pin those shapes so a regenerated fixture that shrank
// differently is noticed.
TEST(FaultFixtureShape, MinimalFaultsAreTheExpectedKind) {
  const FaultScenario rr =
      read_fault_scenario_file(fixture_path("resize_race.scenario"));
  ASSERT_EQ(rr.faults.records.size(), 1u);
  EXPECT_EQ(rr.faults.records[0].kind, ConfigKind::Setup);
  EXPECT_EQ(rr.faults.records[0].action, FaultAction::Delay);
  ASSERT_FALSE(rr.resizes.empty());

  const FaultScenario lt =
      read_fault_scenario_file(fixture_path("lost_teardown.scenario"));
  ASSERT_EQ(lt.faults.records.size(), 1u);
  EXPECT_EQ(lt.faults.records[0].kind, ConfigKind::Teardown);
  EXPECT_EQ(lt.faults.records[0].action, FaultAction::Drop);

  // The link-death fixture's single fault is the hardware kill itself: a
  // circuit holding slot leases across link 7->South loses the link mid-lease
  // and must tear down and reclaim every per-hop reservation.
  const FaultScenario ld =
      read_fault_scenario_file(fixture_path("link_death_lease.scenario"));
  ASSERT_EQ(ld.faults.records.size(), 1u);
  EXPECT_EQ(ld.faults.records[0].kind, ConfigKind::Link);
  EXPECT_EQ(ld.faults.records[0].action, FaultAction::Kill);
  EXPECT_EQ(ld.faults.records[0].src, 7);
  EXPECT_EQ(ld.faults.records[0].dst, static_cast<int>(Port::South));
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

// ddmin on a real scenario: pad the lost-teardown fixture with noise fault
// records (keys that never match a dispatch) and check the shrinker strips
// them all, keeping exactly the teardown drop.
TEST(FaultShrink, DdminReducesToTheSingleDecisiveFault) {
  FaultScenario s =
      read_fault_scenario_file(fixture_path("lost_teardown.scenario"));
  // The decisive drop fires at ~cycle 1536; a short storm keeps the search
  // fast while the lease tail still has room to fire.
  s.run_cycles = 2000;
  s.cooldown_cycles = 500;
  for (int i = 0; i < 5; ++i) {
    FaultRecord r;
    r.kind = ConfigKind::Setup;
    r.src = 30;
    r.dst = 1;
    r.occurrence = 50 + i;
    r.action = FaultAction::Drop;
    s.faults.records.push_back(r);
  }
  const ShrinkResult res =
      shrink_fault_scenario(s, "no-expired-reservations");
  EXPECT_EQ(res.original_faults, 6u);
  ASSERT_EQ(res.final_faults, 1u);
  EXPECT_EQ(res.minimized.faults.records[0].kind, ConfigKind::Teardown);
  EXPECT_EQ(res.minimized.faults.records[0].action, FaultAction::Drop);
  EXPECT_EQ(res.minimized.invariant, "no-expired-reservations");
  // The minimized scenario still fails on its own.
  const ScenarioOutcome o =
      run_fault_scenario(res.minimized, ScenarioMode::Replay);
  EXPECT_TRUE(violates_invariant("no-expired-reservations", o));
}

}  // namespace
}  // namespace hybridnoc
