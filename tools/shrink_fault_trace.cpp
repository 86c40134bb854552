// Record, replay and shrink config-fault storms (src/tdm/fault_trace.hpp).
//
//   shrink_fault_trace record --out storm.scenario [--seed N] [--cycles N]
//       [--drop P] [--delay P] [--dup P] [--max-delay N] [--resize C]...
//       [--pairs N] [--k N]
//       [--link-ber P] [--link-seed N] [--e2e]
//       [--kill-link NODE PORT CYCLE]... [--stick-link NODE PORT CYCLE DUR]...
//       [--kill-router NODE CYCLE]...
//     Generate a bursty multi-pair storm, run it under seeded faults with
//     recording on, and save the self-contained scenario (traffic + every
//     fault decision). The --link-*/--kill-*/--stick-* flags add v2
//     data-plane hardware faults (and --e2e arms end-to-end recovery so
//     corrupted packets are retransmitted); every transient that fires is
//     recorded too, so replay is RNG-free and the shrinker can drop
//     hardware faults like any other record. Prints which invariants the
//     run violates.
//
//   shrink_fault_trace replay --in storm.scenario [--audit]
//       [--invariant NAME] [--expect-violation]
//     Re-drive the recorded decision sequence (no RNG) and print the
//     outcome. --audit runs the reservation audit after every replayed
//     event. With --expect-violation the exit code is 0 only if the named
//     invariant (or the one stamped in the file) is still violated.
//
//   shrink_fault_trace shrink --in storm.scenario --invariant NAME
//       --out fixture.scenario [--audit]
//     Delta-debug (ddmin) the fault set down to a 1-minimal subset that
//     still violates NAME and write it back as a regression fixture.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/input.hpp"
#include "common/rng.hpp"
#include "tdm/fault_trace.hpp"

namespace hybridnoc {
namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: shrink_fault_trace record --out FILE [options]\n"
               "         data-plane options: --link-ber P --link-seed N"
               " --e2e\n"
               "           --kill-link NODE PORT CYCLE"
               " --stick-link NODE PORT CYCLE DUR\n"
               "           --kill-router NODE CYCLE\n"
               "       shrink_fault_trace replay --in FILE [--audit]"
               " [--invariant NAME] [--expect-violation]\n"
               "       shrink_fault_trace shrink --in FILE --invariant NAME"
               " --out FILE [--audit]\n");
  std::exit(2);
}

/// Bursty multi-pair traffic mirroring the seeded-storm test: hot pairs with
/// staggered on/off phases so setups, acks and teardowns keep flowing.
std::vector<TraceEntry> make_storm_traffic(int k, int npairs, Cycle cycles,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const NodeId nodes = static_cast<NodeId>(k) * k;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (static_cast<int>(pairs.size()) < npairs) {
    const NodeId s = static_cast<NodeId>(rng.uniform_int(nodes));
    const NodeId d = static_cast<NodeId>(rng.uniform_int(nodes));
    // Far-apart pairs keep config messages in flight long enough for faults
    // and resizes to race them.
    const int hops = std::abs(s % k - d % k) + std::abs(s / k - d / k);
    if (hops < k / 2 + 1) continue;
    pairs.emplace_back(s, d);
  }
  std::vector<TraceEntry> traffic;
  for (Cycle c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (((c >> 9) + i) % 3 != 0) continue;
      if (rng.bernoulli(0.25)) {
        traffic.push_back({c, pairs[i].first, pairs[i].second, 5});
      }
    }
  }
  return traffic;
}

void print_outcome(const ScenarioOutcome& o, bool replayed) {
  std::printf("quiesced                %s\n", o.quiesced ? "yes" : "NO");
  std::printf("broken_windows          %d\n", o.broken_windows);
  std::printf("orphan_entries          %d\n", o.orphan_entries);
  std::printf("valid_slot_entries      %d\n", o.valid_slot_entries);
  std::printf("active_connections      %d\n", o.active_connections);
  std::printf("config_in_flight        %llu\n",
              static_cast<unsigned long long>(o.config_in_flight));
  std::printf("slot_state_digest       %016llx\n",
              static_cast<unsigned long long>(o.slot_state_digest));
  std::printf("faults drop/delay/dup   %llu/%llu/%llu\n",
              static_cast<unsigned long long>(o.faults_dropped),
              static_cast<unsigned long long>(o.faults_delayed),
              static_cast<unsigned long long>(o.faults_duplicated));
  std::printf("failed_links            %d\n", o.failed_links);
  print_counters(stdout, "ni", o.ni);
  print_counters(stdout, "router", o.router);
  if (replayed) {
    std::printf("replay events/applied   %llu/%llu\n",
                static_cast<unsigned long long>(o.replay_events),
                static_cast<unsigned long long>(o.replay_applied));
    std::printf("replay_audit_failures   %llu\n",
                static_cast<unsigned long long>(o.replay_audit_failures));
  }
}

void print_violations(const ScenarioOutcome& o) {
  std::printf("violated invariants    ");
  bool any = false;
  for (const auto& name : known_invariants()) {
    if (violates_invariant(name, o)) {
      std::printf(" %s", name.c_str());
      any = true;
    }
  }
  std::printf("%s\n", any ? "" : " (none)");
}

struct Args {
  std::string mode;
  std::string in;
  std::string out;
  std::string invariant;
  bool audit = false;
  bool expect_violation = false;
  std::uint64_t seed = 7;
  Cycle cycles = 10000;
  double drop = 0.03, delay = 0.05, dup = 0.03;
  Cycle max_delay = 96;
  std::vector<Cycle> resizes;
  int pairs = 6;
  int k = 6;
  double link_ber = 0.0;
  std::uint64_t link_seed = 1;
  bool e2e = false;
  std::vector<FaultScenario::LinkFaultSpec> kill_links;
  std::vector<FaultScenario::LinkFaultSpec> stick_links;
  std::vector<std::pair<NodeId, Cycle>> kill_routers;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.mode = argv[1];
  if (a.mode != "record" && a.mode != "replay" && a.mode != "shrink") usage();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--in") a.in = value();
    else if (arg == "--out") a.out = value();
    else if (arg == "--invariant") a.invariant = value();
    else if (arg == "--audit") a.audit = true;
    else if (arg == "--expect-violation") a.expect_violation = true;
    else if (arg == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--cycles") a.cycles = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--drop") a.drop = std::strtod(value().c_str(), nullptr);
    else if (arg == "--delay") a.delay = std::strtod(value().c_str(), nullptr);
    else if (arg == "--dup") a.dup = std::strtod(value().c_str(), nullptr);
    else if (arg == "--max-delay") a.max_delay = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--resize") a.resizes.push_back(std::strtoull(value().c_str(), nullptr, 10));
    else if (arg == "--pairs") a.pairs = std::atoi(value().c_str());
    else if (arg == "--k") a.k = std::atoi(value().c_str());
    else if (arg == "--link-ber") a.link_ber = std::strtod(value().c_str(), nullptr);
    else if (arg == "--link-seed") a.link_seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--e2e") a.e2e = true;
    else if (arg == "--kill-link" || arg == "--stick-link") {
      FaultScenario::LinkFaultSpec f;
      f.node = static_cast<NodeId>(std::strtoul(value().c_str(), nullptr, 10));
      f.port = std::atoi(value().c_str());
      f.start = std::strtoull(value().c_str(), nullptr, 10);
      if (arg == "--stick-link") {
        f.duration = std::strtoull(value().c_str(), nullptr, 10);
        a.stick_links.push_back(f);
      } else {
        a.kill_links.push_back(f);
      }
    } else if (arg == "--kill-router") {
      const NodeId n = static_cast<NodeId>(std::strtoul(value().c_str(), nullptr, 10));
      const Cycle at = std::strtoull(value().c_str(), nullptr, 10);
      a.kill_routers.emplace_back(n, at);
    } else usage();
  }
  return a;
}

int run_record(const Args& a) {
  if (a.out.empty()) usage();
  FaultScenario s;
  s.k = a.k;
  s.run_cycles = a.cycles;
  s.resizes = a.resizes;
  s.dynamic_slot_sizing = !a.resizes.empty();
  s.fault_params.drop_prob = a.drop;
  s.fault_params.delay_prob = a.delay;
  s.fault_params.dup_prob = a.dup;
  s.fault_params.max_delay_cycles = a.max_delay;
  s.fault_params.seed = a.seed;
  s.link_ber = a.link_ber;
  s.link_fault_seed = a.link_seed;
  s.dead_links = a.kill_links;
  s.stuck_links = a.stick_links;
  s.dead_routers = a.kill_routers;
  // Data-plane faults corrupt payloads; without end-to-end recovery the
  // destination just squashes them, so arm it whenever faults are in play
  // (or on explicit request).
  s.e2e_recovery = a.e2e || a.link_ber > 0.0 || !a.kill_links.empty() ||
                   !a.stick_links.empty() || !a.kill_routers.empty();
  s.to_config().validate();  // before the storm generator loops on k < 2
  s.traffic = make_storm_traffic(a.k, a.pairs, a.cycles + s.cooldown_cycles,
                                 a.seed * 1000003 + 11);
  const ScenarioOutcome o =
      run_fault_scenario(s, ScenarioMode::Record, false, &s.faults);
  if (!a.invariant.empty()) s.invariant = a.invariant;
  write_fault_scenario_file(a.out, s);
  std::printf("recorded %zu config events (%zu faulted) over %llu cycles\n",
              s.faults.records.size(), s.faults.active_faults(),
              static_cast<unsigned long long>(a.cycles));
  print_outcome(o, /*replayed=*/false);
  print_violations(o);
  std::printf("wrote %s\n", a.out.c_str());
  return 0;
}

int run_replay(const Args& a) {
  if (a.in.empty()) usage();
  const FaultScenario s = read_fault_scenario_file(a.in);
  const std::string invariant =
      a.invariant.empty() ? s.invariant : a.invariant;
  const ScenarioOutcome o =
      run_fault_scenario(s, ScenarioMode::Replay, a.audit);
  std::printf("replayed %zu trace records (%zu faulted): applied %llu of "
              "%llu events\n",
              s.faults.records.size(), s.faults.active_faults(),
              static_cast<unsigned long long>(o.replay_applied),
              static_cast<unsigned long long>(o.replay_events));
  print_outcome(o, /*replayed=*/true);
  print_violations(o);
  if (a.expect_violation) {
    if (invariant.empty()) {
      std::fprintf(stderr, "no invariant named (file or --invariant)\n");
      return 2;
    }
    const bool violated = violates_invariant(invariant, o);
    std::printf("invariant '%s' %s\n", invariant.c_str(),
                violated ? "still violated (reproduced)" : "HOLDS");
    return violated ? 0 : 1;
  }
  return 0;
}

int run_shrink(const Args& a) {
  if (a.in.empty() || a.out.empty()) usage();
  const FaultScenario s = read_fault_scenario_file(a.in);
  const std::string invariant =
      a.invariant.empty() ? s.invariant : a.invariant;
  if (invariant.empty()) {
    std::fprintf(stderr, "shrink needs --invariant (or one in the file)\n");
    return 2;
  }
  const ShrinkResult r = shrink_fault_scenario(
      s, invariant, a.audit,
      [](const std::string& msg) { std::printf("  %s\n", msg.c_str()); });
  write_fault_scenario_file(a.out, r.minimized);
  std::printf("shrunk %zu recorded events (%zu faults) -> %zu faults in %d "
              "runs; wrote %s\n",
              r.original_records, r.original_faults, r.final_faults, r.runs,
              a.out.c_str());
  return 0;
}

}  // namespace
}  // namespace hybridnoc

int main(int argc, char** argv) {
  const hybridnoc::Args args = hybridnoc::parse_args(argc, argv);
  try {
    if (args.mode == "record") return hybridnoc::run_record(args);
    if (args.mode == "replay") return hybridnoc::run_replay(args);
    return hybridnoc::run_shrink(args);
  } catch (const hybridnoc::InputError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
