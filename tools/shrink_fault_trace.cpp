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

/// The flags each mode reads; any other flag is an error.
std::vector<Flags::Decl> mode_flags(const std::string& mode) {
  if (mode == "record") {
    return {{"out"}, {"seed"}, {"cycles"}, {"drop"}, {"delay"}, {"dup"},
            {"max-delay"}, {"resize"}, {"pairs"}, {"k"}, {"link-ber"},
            {"link-seed"}, {"e2e", 0}, {"kill-link", 3}, {"stick-link", 4},
            {"kill-router", 2}, {"invariant"}};
  }
  if (mode == "replay") {
    return {{"in"}, {"audit", 0}, {"invariant"}, {"expect-violation", 0}};
  }
  if (mode == "shrink") return {{"in"}, {"invariant"}, {"out"}, {"audit", 0}};
  usage();
}

FaultScenario::LinkFaultSpec link_fault(const Flags::Use& u) {
  FaultScenario::LinkFaultSpec f;
  f.node = u.num<NodeId>(0);
  f.port = u.num<int>(1);
  f.start = u.num<Cycle>(2);
  if (u.values.size() > 3) f.duration = u.num<Cycle>(3);
  return f;
}

int run_record(const Flags& a) {
  const std::string out = a.str("out", "");
  if (out.empty()) usage();
  FaultScenario s;
  s.k = a.num("k", 6);
  s.run_cycles = a.num<Cycle>("cycles", 10000);
  for (const Flags::Use* u : a.all("resize")) s.resizes.push_back(u->num<Cycle>(0));
  s.dynamic_slot_sizing = !s.resizes.empty();
  const std::uint64_t seed = a.num<std::uint64_t>("seed", 7);
  s.fault_params.drop_prob = a.num("drop", 0.03, 0.0, 1.0);
  s.fault_params.delay_prob = a.num("delay", 0.05, 0.0, 1.0);
  s.fault_params.dup_prob = a.num("dup", 0.03, 0.0, 1.0);
  s.fault_params.max_delay_cycles = a.num<Cycle>("max-delay", 96);
  s.fault_params.seed = seed;
  s.link_ber = a.num("link-ber", 0.0, 0.0, 1.0);
  s.link_fault_seed = a.num<std::uint64_t>("link-seed", 1);
  for (const Flags::Use* u : a.all("kill-link")) s.dead_links.push_back(link_fault(*u));
  for (const Flags::Use* u : a.all("stick-link")) s.stuck_links.push_back(link_fault(*u));
  for (const Flags::Use* u : a.all("kill-router")) {
    s.dead_routers.emplace_back(u->num<NodeId>(0), u->num<Cycle>(1));
  }
  // Data-plane faults corrupt payloads; without end-to-end recovery the
  // destination just squashes them, so arm it whenever faults are in play
  // (or on explicit request).
  s.e2e_recovery = a.has("e2e") || s.link_ber > 0.0 || !s.dead_links.empty() ||
                   !s.stuck_links.empty() || !s.dead_routers.empty();
  const int pairs = a.num("pairs", 6, 0);
  s.to_config().validate();  // before the storm generator loops on k < 2
  s.traffic = make_storm_traffic(s.k, pairs, s.run_cycles + s.cooldown_cycles,
                                 seed * 1000003 + 11);
  const ScenarioOutcome o =
      run_fault_scenario(s, ScenarioMode::Record, false, &s.faults);
  s.invariant = a.str("invariant", s.invariant);
  write_fault_scenario_file(out, s);
  std::printf("recorded %zu config events (%zu faulted) over %llu cycles\n",
              s.faults.records.size(), s.faults.active_faults(),
              static_cast<unsigned long long>(s.run_cycles));
  print_outcome(o, /*replayed=*/false);
  print_violations(o);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int run_replay(const Flags& a) {
  const std::string in = a.str("in", "");
  if (in.empty()) usage();
  const FaultScenario s = read_fault_scenario_file(in);
  const std::string invariant = a.str("invariant", s.invariant);
  const ScenarioOutcome o =
      run_fault_scenario(s, ScenarioMode::Replay, a.has("audit"));
  std::printf("replayed %zu trace records (%zu faulted): applied %llu of "
              "%llu events\n",
              s.faults.records.size(), s.faults.active_faults(),
              static_cast<unsigned long long>(o.replay_applied),
              static_cast<unsigned long long>(o.replay_events));
  print_outcome(o, /*replayed=*/true);
  print_violations(o);
  if (a.has("expect-violation")) {
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

int run_shrink(const Flags& a) {
  const std::string in = a.str("in", ""), out = a.str("out", "");
  if (in.empty() || out.empty()) usage();
  const FaultScenario s = read_fault_scenario_file(in);
  const std::string invariant = a.str("invariant", s.invariant);
  if (invariant.empty()) {
    std::fprintf(stderr, "shrink needs --invariant (or one in the file)\n");
    return 2;
  }
  const ShrinkResult r = shrink_fault_scenario(
      s, invariant, a.has("audit"),
      [](const std::string& msg) { std::printf("  %s\n", msg.c_str()); });
  write_fault_scenario_file(out, r.minimized);
  std::printf("shrunk %zu recorded events (%zu faults) -> %zu faults in %d "
              "runs; wrote %s\n",
              r.original_records, r.original_faults, r.final_faults, r.runs,
              out.c_str());
  return 0;
}

}  // namespace
}  // namespace hybridnoc

int main(int argc, char** argv) {
  using namespace hybridnoc;
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    const Flags flags(argc, argv, 2, mode_flags(mode));
    if (mode == "record") return run_record(flags);
    if (mode == "replay") return run_replay(flags);
    return run_shrink(flags);
  } catch (const InputError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
