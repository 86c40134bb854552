#include "tdm/fault_trace.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "common/pool.hpp"

#include "common/assert.hpp"
#include "common/fileio.hpp"
#include "common/input.hpp"
#include "noc/fault_model.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {

// ---------------------------------------------------------------------------
// Enum names
// ---------------------------------------------------------------------------

const char* config_kind_name(ConfigKind k) {
  switch (k) {
    case ConfigKind::Setup: return "setup";
    case ConfigKind::Teardown: return "teardown";
    case ConfigKind::AckSuccess: return "ack+";
    case ConfigKind::Link: return "link";
    case ConfigKind::Router: return "router";
  }
  return "?";
}

const char* fault_action_name(FaultAction a) {
  switch (a) {
    case FaultAction::None: return "none";
    case FaultAction::Drop: return "drop";
    case FaultAction::Delay: return "delay";
    case FaultAction::Duplicate: return "dup";
    case FaultAction::Corrupt: return "corrupt";
    case FaultAction::Stuck: return "stuck";
    case FaultAction::Kill: return "kill";
  }
  return "?";
}

std::optional<ConfigKind> parse_config_kind(const std::string& s) {
  if (s == "setup") return ConfigKind::Setup;
  if (s == "teardown") return ConfigKind::Teardown;
  if (s == "ack+") return ConfigKind::AckSuccess;
  if (s == "link") return ConfigKind::Link;
  if (s == "router") return ConfigKind::Router;
  return std::nullopt;
}

std::optional<FaultAction> parse_fault_action(const std::string& s) {
  if (s == "none") return FaultAction::None;
  if (s == "drop") return FaultAction::Drop;
  if (s == "delay") return FaultAction::Delay;
  if (s == "dup") return FaultAction::Duplicate;
  if (s == "corrupt") return FaultAction::Corrupt;
  if (s == "stuck") return FaultAction::Stuck;
  if (s == "kill") return FaultAction::Kill;
  return std::nullopt;
}

std::uint64_t fault_record_key(ConfigKind kind, NodeId src, NodeId dst,
                               int occurrence) {
  HN_CHECK(src >= 0 && dst >= 0 && occurrence >= 0);
  HN_CHECK(src < kFaultKeyLimit && dst < kFaultKeyLimit &&
           occurrence < kFaultKeyLimit);
  return (static_cast<std::uint64_t>(kind) << 60) |
         (static_cast<std::uint64_t>(src) << 40) |
         (static_cast<std::uint64_t>(dst) << 20) |
         static_cast<std::uint64_t>(occurrence);
}

std::size_t FaultTrace::active_faults() const {
  return static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(), [](const FaultRecord& r) {
        return r.action != FaultAction::None;
      }));
}

// ---------------------------------------------------------------------------
// Trace serialization
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kTraceMagic = "hybridnoc-fault-trace";
constexpr const char* kScenarioMagic = "hybridnoc-fault-scenario";

void write_record(std::ostream& out, const FaultRecord& r) {
  out << r.cycle << ' ' << r.msg_id << ' ' << config_kind_name(r.kind) << ' '
      << r.src << ' ' << r.dst << ' ' << r.occurrence << ' '
      << fault_action_name(r.action) << ' ' << r.delay << '\n';
}

/// Parse one record line that `reader` returned.
FaultRecord parse_record(const std::string& line, const LineReader& reader) {
  LineFields f(reader, line, "malformed fault-trace record");
  FaultRecord r;
  f.read(r.cycle);
  f.read(r.msg_id);
  const auto k = parse_config_kind(std::string(f.word()));
  f.read(r.src);
  f.read(r.dst);
  f.read(r.occurrence);
  const auto a = parse_fault_action(std::string(f.word()));
  f.read(r.delay);
  f.end();
  reader.check(k.has_value(), "unknown config kind in fault trace");
  reader.check(a.has_value(), "unknown fault action in fault trace");
  reader.check(r.src >= 0 && r.src < kFaultKeyLimit && r.dst >= 0 &&
                   r.dst < kFaultKeyLimit && r.occurrence >= 0 &&
                   r.occurrence < kFaultKeyLimit,
               "invalid fault-trace record: src, dst and occurrence must lie "
               "in [0, 2^20)");
  r.kind = *k;
  r.action = *a;
  // Data-plane records (v2) carry a port index in dst and a restricted
  // action set; reject inconsistent combinations at the parse boundary.
  if (r.kind == ConfigKind::Link) {
    reader.check(r.dst >= 1 && r.dst < kNumPorts, "invalid link fault port");
    reader.check(r.action == FaultAction::Corrupt ||
                     r.action == FaultAction::Stuck ||
                     r.action == FaultAction::Kill,
                 "invalid link fault action");
  } else if (r.kind == ConfigKind::Router) {
    reader.check(r.action == FaultAction::Kill, "invalid router fault action");
  } else {
    reader.check(r.action != FaultAction::Corrupt &&
                     r.action != FaultAction::Stuck &&
                     r.action != FaultAction::Kill,
                 "data-plane action on a config record");
  }
  return r;
}

/// The first line with content must be `<magic> v<version>`.
void check_version_header(LineReader& reader, const char* magic) {
  std::string line;
  reader.check(reader.next(&line), "bad fault-trace header");
  LineFields f(reader, line, "bad fault-trace header");
  const std::string_view word = f.word(), version = f.word();
  f.end();
  reader.check(word == magic && version.starts_with('v'),
               "bad fault-trace header");
  LineFields(reader, version.substr(1), "unsupported fault-trace version")
      .num(1, FaultTrace::kVersion);
}

}  // namespace

void save_fault_trace(std::ostream& out, const FaultTrace& trace) {
  out << kTraceMagic << " v" << FaultTrace::kVersion << '\n';
  out << "# cycle msg_id kind src dst occurrence action delay\n";
  for (const auto& r : trace.records) write_record(out, r);
}

FaultTrace load_fault_trace(std::istream& in, const std::string& source) {
  LineReader reader(in, source);
  check_version_header(reader, kTraceMagic);
  FaultTrace t;
  std::string line;
  while (reader.next(&line)) t.records.push_back(parse_record(line, reader));
  return t;
}

// ---------------------------------------------------------------------------
// Scenario serialization
// ---------------------------------------------------------------------------

NocConfig FaultScenario::to_config() const {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(k);
  cfg.slot_table_size = slot_table_size;
  cfg.dynamic_slot_sizing = dynamic_slot_sizing;
  cfg.initial_active_slots = initial_active_slots;
  cfg.path_freq_threshold = path_freq_threshold;
  cfg.policy_epoch_cycles = policy_epoch_cycles;
  cfg.path_idle_timeout = path_idle_timeout;
  cfg.pending_setup_timeout_cycles = pending_setup_timeout_cycles;
  cfg.reservation_lease_cycles = reservation_lease_cycles;
  cfg.link_ber = link_ber;
  cfg.fault_seed = link_fault_seed;
  cfg.e2e_recovery = e2e_recovery;
  cfg.retx_timeout_cycles = retx_timeout_cycles;
  cfg.retx_backoff_cap_cycles = retx_backoff_cap_cycles;
  cfg.max_retx_attempts = max_retx_attempts;
  cfg.cs_fail_threshold = cs_fail_threshold;
  cfg.watchdog_stall_cycles = watchdog_stall_cycles;
  cfg.setup_backoff_base_cycles = setup_backoff_base_cycles;
  cfg.setup_backoff_cap_cycles = setup_backoff_cap_cycles;
  return cfg;
}

void save_fault_scenario(std::ostream& out, const FaultScenario& s) {
  out << kScenarioMagic << " v" << FaultTrace::kVersion << '\n';
  out << "k " << s.k << '\n';
  out << "slot_table_size " << s.slot_table_size << '\n';
  out << "dynamic_slot_sizing " << (s.dynamic_slot_sizing ? 1 : 0) << '\n';
  out << "initial_active_slots " << s.initial_active_slots << '\n';
  out << "path_freq_threshold " << s.path_freq_threshold << '\n';
  out << "policy_epoch_cycles " << s.policy_epoch_cycles << '\n';
  out << "path_idle_timeout " << s.path_idle_timeout << '\n';
  out << "pending_setup_timeout " << s.pending_setup_timeout_cycles << '\n';
  out << "reservation_lease " << s.reservation_lease_cycles << '\n';
  out << "run_cycles " << s.run_cycles << '\n';
  out << "cooldown_cycles " << s.cooldown_cycles << '\n';
  for (const Cycle c : s.resizes) out << "resize " << c << '\n';
  out << "drop_prob " << s.fault_params.drop_prob << '\n';
  out << "delay_prob " << s.fault_params.delay_prob << '\n';
  out << "dup_prob " << s.fault_params.dup_prob << '\n';
  out << "max_delay_cycles " << s.fault_params.max_delay_cycles << '\n';
  out << "fault_seed " << s.fault_params.seed << '\n';
  out << "link_ber " << s.link_ber << '\n';
  out << "link_fault_seed " << s.link_fault_seed << '\n';
  out << "e2e_recovery " << (s.e2e_recovery ? 1 : 0) << '\n';
  out << "retx_timeout " << s.retx_timeout_cycles << '\n';
  out << "retx_backoff_cap " << s.retx_backoff_cap_cycles << '\n';
  out << "max_retx_attempts " << s.max_retx_attempts << '\n';
  out << "cs_fail_threshold " << s.cs_fail_threshold << '\n';
  out << "watchdog_stall " << s.watchdog_stall_cycles << '\n';
  out << "setup_backoff_base " << s.setup_backoff_base_cycles << '\n';
  out << "setup_backoff_cap " << s.setup_backoff_cap_cycles << '\n';
  for (const auto& d : s.dead_links) {
    out << "kill_link " << d.node << ' ' << d.port << ' ' << d.start << '\n';
  }
  for (const auto& d : s.stuck_links) {
    out << "stick_link " << d.node << ' ' << d.port << ' ' << d.start << ' '
        << d.duration << '\n';
  }
  for (const auto& [node, at] : s.dead_routers) {
    out << "kill_router " << node << ' ' << at << '\n';
  }
  if (!s.invariant.empty()) out << "invariant " << s.invariant << '\n';
  out << "traffic " << s.traffic.size() << '\n';
  out << "# cycle src dst flits\n";
  for (const auto& e : s.traffic) {
    out << e.cycle << ' ' << e.src << ' ' << e.dst << ' ' << e.flits << '\n';
  }
  out << "faults " << s.faults.records.size() << '\n';
  out << "# cycle msg_id kind src dst occurrence action delay\n";
  for (const auto& r : s.faults.records) write_record(out, r);
  out << "end\n";
}

FaultScenario load_fault_scenario(std::istream& in,
                                  const std::string& source) {
  LineReader reader(in, source);
  check_version_header(reader, kScenarioMagic);
  FaultScenario s;
  std::string line, entry;  // a field line, and a line of its block
  bool saw_end = false;
  while (!saw_end && reader.next(&line)) {
    LineFields f(reader, line, "malformed scenario field value");
    const std::string key(f.word());
    if (key == "k") f.read(s.k);
    else if (key == "slot_table_size") f.read(s.slot_table_size);
    else if (key == "dynamic_slot_sizing") f.read(s.dynamic_slot_sizing);
    else if (key == "initial_active_slots") f.read(s.initial_active_slots);
    else if (key == "path_freq_threshold") f.read(s.path_freq_threshold);
    else if (key == "policy_epoch_cycles") f.read(s.policy_epoch_cycles);
    else if (key == "path_idle_timeout") f.read(s.path_idle_timeout);
    else if (key == "pending_setup_timeout") f.read(s.pending_setup_timeout_cycles);
    else if (key == "reservation_lease") f.read(s.reservation_lease_cycles);
    else if (key == "run_cycles") f.read(s.run_cycles);
    else if (key == "cooldown_cycles") f.read(s.cooldown_cycles);
    else if (key == "resize") f.read(s.resizes.emplace_back());
    else if (key == "drop_prob") f.read(s.fault_params.drop_prob);
    else if (key == "delay_prob") f.read(s.fault_params.delay_prob);
    else if (key == "dup_prob") f.read(s.fault_params.dup_prob);
    else if (key == "max_delay_cycles") f.read(s.fault_params.max_delay_cycles);
    else if (key == "fault_seed") f.read(s.fault_params.seed);
    else if (key == "link_ber") f.read(s.link_ber);
    else if (key == "link_fault_seed") f.read(s.link_fault_seed);
    else if (key == "e2e_recovery") f.read(s.e2e_recovery);
    else if (key == "retx_timeout") f.read(s.retx_timeout_cycles);
    else if (key == "retx_backoff_cap") f.read(s.retx_backoff_cap_cycles);
    else if (key == "max_retx_attempts") f.read(s.max_retx_attempts);
    else if (key == "cs_fail_threshold") f.read(s.cs_fail_threshold);
    else if (key == "watchdog_stall") f.read(s.watchdog_stall_cycles);
    else if (key == "setup_backoff_base") f.read(s.setup_backoff_base_cycles);
    else if (key == "setup_backoff_cap") f.read(s.setup_backoff_cap_cycles);
    else if (key == "kill_link" || key == "stick_link") {
      FaultScenario::LinkFaultSpec d;
      f.read(d.node);
      f.read(d.port);
      f.read(d.start);
      if (key == "stick_link") f.read(d.duration);
      reader.check(d.port >= 1 && d.port < kNumPorts,
                   "invalid scenario link fault port");
      (key == "kill_link" ? s.dead_links : s.stuck_links).push_back(d);
    } else if (key == "kill_router") {
      auto& [node, at] = s.dead_routers.emplace_back();
      f.read(node);
      f.read(at);
    } else if (key == "invariant") {
      s.invariant = f.word();
    } else if (key == "traffic") {
      const auto n = f.num<std::size_t>();
      f.end();  // before the block's lines move the reader on
      while (s.traffic.size() < n && reader.next(&entry)) {
        LineFields ef(reader, entry, "malformed scenario traffic entry");
        const TraceEntry e{ef.num<Cycle>(), ef.num<NodeId>(), ef.num<NodeId>(),
                           ef.num<int>()};
        ef.end();
        reader.check(e.flits >= 1 && e.src >= 0 && e.dst >= 0 &&
                         (s.traffic.empty() || s.traffic.back().cycle <= e.cycle),
                     "invalid scenario traffic entry");
        s.traffic.push_back(e);
      }
      reader.check(s.traffic.size() == n, "truncated scenario traffic block");
    } else if (key == "faults") {
      const auto n = f.num<std::size_t>();
      f.end();
      while (s.faults.records.size() < n && reader.next(&entry)) {
        s.faults.records.push_back(parse_record(entry, reader));
      }
      reader.check(s.faults.records.size() == n,
                   "truncated scenario fault block");
    } else if (key == "end") {
      saw_end = true;
    } else {
      reader.fail("unknown scenario field '" + key + "'");
    }
    f.end();
  }
  reader.check(saw_end, "scenario file missing end marker");
  return s;
}

FaultScenario read_fault_scenario_file(const std::string& path) {
  std::ifstream in = open_input(path);
  return load_fault_scenario(in, path);
}

void write_fault_scenario_file(const std::string& path,
                               const FaultScenario& s) {
  // Atomic write-temp-then-rename: an interrupted writer (shrinker, test
  // fixture recorder) never leaves a torn scenario behind.
  std::ostringstream out;
  save_fault_scenario(out, s);
  std::string err;
  if (!write_file_atomic(path, out.str(), &err)) {
    throw InputError("cannot write '" + path + "': " + err);
  }
}

// ---------------------------------------------------------------------------
// Scenario runner
// ---------------------------------------------------------------------------

namespace {

/// FaultRecord <-> LinkFaultEvent mapping for v2 data-plane records.
FaultRecord data_fault_record(const LinkFaultEvent& e) {
  FaultRecord r;
  r.cycle = e.start;
  r.kind = e.kind == FaultKind::DeadRouter ? ConfigKind::Router
                                           : ConfigKind::Link;
  r.src = e.node;
  r.dst = static_cast<NodeId>(e.out);  // port index; Local (0) for routers
  r.occurrence = static_cast<int>(e.occurrence);
  switch (e.kind) {
    case FaultKind::Transient: r.action = FaultAction::Corrupt; break;
    case FaultKind::StuckLink:
      r.action = FaultAction::Stuck;
      r.delay = e.duration;
      break;
    case FaultKind::DeadLink:
    case FaultKind::DeadRouter: r.action = FaultAction::Kill; break;
  }
  return r;
}

bool is_data_fault_record(const FaultRecord& r) {
  return r.kind == ConfigKind::Link || r.kind == ConfigKind::Router;
}

/// Throws InputError unless every traffic entry, link and router the
/// scenario names lies inside `mesh`. The loader cannot check them: `k` may
/// follow them in the file.
void check_scenario_in_mesh(const FaultScenario& s, const Mesh& mesh) {
  if (!s.traffic.empty()) check_trace(s.traffic, mesh.num_nodes());
  const auto check_link = [&](NodeId node, int port, Cycle duration) {
    check_input(mesh.valid(node) &&
                    mesh.has_neighbor(node, static_cast<Port>(port)),
                "scenario link fault outside the mesh");
    check_input(duration >= 1, "scenario stuck-link duration must be >= 1");
  };
  for (const auto& d : s.dead_links) check_link(d.node, d.port, 1);
  for (const auto& d : s.stuck_links) check_link(d.node, d.port, d.duration);
  for (const auto& d : s.dead_routers) {
    check_input(mesh.valid(d.first), "scenario router fault outside the mesh");
  }
  for (const FaultRecord& r : s.faults.records) {
    if (r.kind == ConfigKind::Router) {
      check_input(mesh.valid(r.src), "scenario router fault outside the mesh");
    } else if (r.kind == ConfigKind::Link) {
      check_link(r.src, r.dst, r.action == FaultAction::Stuck ? r.delay : 1);
      check_input(r.action != FaultAction::Corrupt || r.occurrence >= 1,
                  "scenario link corruption occurrence must be >= 1");
    }
  }
}

}  // namespace

ScenarioOutcome run_fault_scenario(const FaultScenario& s, ScenarioMode mode,
                                   bool audit_each_event,
                                   FaultTrace* recorded) {
  HybridNetwork net(s.to_config());
  check_scenario_in_mesh(s, net.mesh());
  const bool data_faults = s.link_ber > 0.0 || !s.dead_links.empty() ||
                           !s.stuck_links.empty() || !s.dead_routers.empty();
  if (mode == ScenarioMode::Record) {
    if (data_faults) {
      FaultModel& fm = net.ensure_fault_model();
      for (const auto& d : s.dead_links)
        fm.kill_link(d.node, static_cast<Port>(d.port), d.start);
      for (const auto& d : s.stuck_links)
        fm.stick_link(d.node, static_cast<Port>(d.port), d.start, d.duration);
      for (const auto& [node, at] : s.dead_routers) fm.kill_router(node, at);
      fm.set_recording(true);
    }
    net.enable_config_faults(s.fault_params);
    net.start_fault_trace_recording();
  } else {
    // Replay re-derives every data-plane fault from the trace (not the
    // scenario's kill/stick schedule), so the shrinker can drop those
    // records too; transient corruption replays by (link, occurrence) and
    // never evaluates the BER hash.
    FaultTrace config_trace;
    std::vector<LinkFaultEvent> transients;
    bool any_data_records = false;
    for (const auto& r : s.faults.records) {
      if (!is_data_fault_record(r)) {
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
    net.enable_config_fault_replay(config_trace, audit_each_event);
  }

  // Resize requests and traffic are both indexed against the scenario clock;
  // traffic entries beyond run_cycles keep injecting through the cooldown.
  std::size_t tpos = 0;
  auto offer = [&](Cycle cycle) {
    while (tpos < s.traffic.size() && s.traffic[tpos].cycle <= cycle) {
      const TraceEntry& e = s.traffic[tpos++];
      auto p = make_packet();
      p->id = static_cast<PacketId>(tpos);
      p->src = e.src;
      p->dst = e.dst;
      p->num_flits = e.flits;
      net.ni(e.src).send(std::move(p), net.now());
    }
  };
  std::unordered_set<Cycle> resize_at(s.resizes.begin(), s.resizes.end());

  for (Cycle cycle = 0; cycle < s.run_cycles; ++cycle) {
    if (resize_at.count(cycle)) net.controller().request_resize();
    offer(cycle);
    net.tick();
  }
  if (mode == ScenarioMode::Record) {
    net.stop_fault_trace_recording();
    net.disable_config_faults();
  }
  // Replay stays armed through the cooldown: a shrunk trace may fault
  // events the storm window no longer covers, and unmatched events are
  // unfaulted anyway.
  for (Cycle cycle = s.run_cycles; cycle < s.run_cycles + s.cooldown_cycles;
       ++cycle) {
    offer(cycle);
    net.tick();
  }
  net.set_policy_frozen(true);
  for (int i = 0; i < 60000 && !net.quiescent(); ++i) net.tick();

  ScenarioOutcome o;
  o.quiesced = net.quiescent();
  // Three leases: enough for entries orphaned at the very end of the drain
  // to expire, twice over.
  for (Cycle i = 0; i < 3 * s.reservation_lease_cycles; ++i) net.tick();

  const ReservationAudit audit = net.audit_reservations();
  o.broken_windows = audit.broken_windows;
  o.orphan_entries = audit.orphan_entries;
  o.valid_slot_entries = net.total_valid_slot_entries();
  o.active_connections = net.total_active_connections();
  o.config_in_flight = net.controller().config_in_flight();
  o.slot_state_digest = net.slot_state_digest();
  o.faults_dropped = net.faults_dropped();
  o.faults_delayed = net.faults_delayed();
  o.faults_duplicated = net.faults_duplicated();
  o.replay_events = net.replay_events();
  o.replay_applied = net.replay_applied();
  o.replay_audit_failures = net.replay_audit_failures();
  o.failed_links = net.degradation_report().failed_links;
  o.ni = net.ni_counters();
  o.router = net.router_counters();
  if (recorded) {
    *recorded = net.recorded_fault_trace();
    // Fold the run's data-plane faults in (v2): the scheduled kills/stucks
    // and every transient corruption that actually fired, so the trace alone
    // reproduces the storm.
    if (const FaultModel* fm = net.fault_model()) {
      for (const auto& e : fm->scheduled_events())
        recorded->records.push_back(data_fault_record(e));
      for (const auto& e : fm->fired_transients())
        recorded->records.push_back(data_fault_record(e));
    }
  }
  return o;
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

bool violates_invariant(const std::string& name, const ScenarioOutcome& o) {
  if (name == "converges") {
    return !o.quiesced || o.broken_windows != 0 || o.orphan_entries != 0 ||
           o.valid_slot_entries != 0 || o.active_connections != 0 ||
           o.config_in_flight != 0;
  }
  if (name == "no-stale-config-drops") {
    return o.ni[NiCounter::StaleConfigDrops] +
               o.router[RouterCounter::StaleConfigDrops] > 0;
  }
  if (name == "no-pending-timeouts") return o.ni[NiCounter::PendingTimeouts] > 0;
  if (name == "no-expired-reservations") {
    return o.router[RouterCounter::ExpiredReservations] > 0;
  }
  if (name == "no-orphan-ack-teardowns") {
    return o.ni[NiCounter::OrphanAckTeardowns] > 0;
  }
  if (name == "clean-replay-audit") return o.replay_audit_failures > 0;
  if (name == "all-delivered") {
    return !o.quiesced ||
           o.ni[NiCounter::DataPacketsDelivered] < o.ni[NiCounter::DataPacketsSent];
  }
  if (name == "no-fault-teardowns") return o.ni[NiCounter::CsFaultTeardowns] > 0;
  if (name == "no-retx-give-ups") return o.ni[NiCounter::RetxGiveUps] > 0;
  throw InputError("unknown invariant '" + name + "'");
}

std::vector<std::string> known_invariants() {
  return {"converges",
          "no-stale-config-drops",
          "no-pending-timeouts",
          "no-expired-reservations",
          "no-orphan-ack-teardowns",
          "clean-replay-audit",
          "all-delivered",
          "no-fault-teardowns",
          "no-retx-give-ups"};
}

// ---------------------------------------------------------------------------
// Delta-debugging shrinker
// ---------------------------------------------------------------------------

ShrinkResult shrink_fault_scenario(
    const FaultScenario& failing, const std::string& invariant,
    bool audit_each_event,
    const std::function<void(const std::string&)>& progress) {
  auto say = [&](const std::string& msg) {
    if (progress) progress(msg);
  };

  std::vector<FaultRecord> faults;
  for (const auto& r : failing.faults.records) {
    if (r.action != FaultAction::None) faults.push_back(r);
  }

  ShrinkResult res;
  res.original_records = failing.faults.records.size();
  res.original_faults = faults.size();

  auto with_faults = [&](const std::vector<FaultRecord>& subset) {
    FaultScenario s = failing;
    s.faults.records = subset;
    s.invariant = invariant;
    return s;
  };
  auto still_fails = [&](const std::vector<FaultRecord>& subset) {
    ++res.runs;
    const ScenarioOutcome o = run_fault_scenario(
        with_faults(subset), ScenarioMode::Replay, audit_each_event);
    return violates_invariant(invariant, o);
  };

  check_input(still_fails(faults),
              "scenario does not violate the invariant to begin with");
  say("baseline violates '" + invariant + "' with " +
      std::to_string(faults.size()) + " faults (of " +
      std::to_string(res.original_records) + " recorded events)");

  // Classic ddmin: try subsets, then complements, at doubling granularity.
  std::size_t n = 2;
  while (faults.size() >= 2) {
    const std::size_t chunk = (faults.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t start = 0; start < faults.size() && !reduced;
         start += chunk) {
      const std::size_t stop = std::min(start + chunk, faults.size());
      std::vector<FaultRecord> subset(faults.begin() + start,
                                      faults.begin() + stop);
      if (subset.size() < faults.size() && still_fails(subset)) {
        faults = std::move(subset);
        n = 2;
        reduced = true;
        say("reduced to subset of " + std::to_string(faults.size()));
      }
    }
    for (std::size_t start = 0; start < faults.size() && !reduced;
         start += chunk) {
      const std::size_t stop = std::min(start + chunk, faults.size());
      std::vector<FaultRecord> complement;
      complement.insert(complement.end(), faults.begin(), faults.begin() + start);
      complement.insert(complement.end(), faults.begin() + stop, faults.end());
      if (!complement.empty() && complement.size() < faults.size() &&
          still_fails(complement)) {
        faults = std::move(complement);
        n = std::max<std::size_t>(n - 1, 2);
        reduced = true;
        say("reduced to complement of " + std::to_string(faults.size()));
      }
    }
    if (!reduced) {
      if (n >= faults.size()) break;
      n = std::min(n * 2, faults.size());
    }
  }

  // Second phase: truncate the injection schedule to the shortest prefix
  // that still fails (fault counters are monotone, so the violation is
  // decided by the time its fault fires; everything after is ballast in a
  // checked-in fixture). Binary search assumes monotonicity — the final
  // verification run below restores the full schedule if the assumption
  // broke.
  FaultScenario trimmed = with_faults(faults);
  {
    const auto& full = failing.traffic;
    std::size_t lo = 0, hi = full.size();
    auto fails_with_prefix = [&](std::size_t m) {
      FaultScenario t = trimmed;
      t.traffic.assign(full.begin(), full.begin() + m);
      ++res.runs;
      const ScenarioOutcome o =
          run_fault_scenario(t, ScenarioMode::Replay, audit_each_event);
      return violates_invariant(invariant, o);
    };
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (fails_with_prefix(mid)) hi = mid;
      else lo = mid + 1;
    }
    if (hi < full.size()) {
      if (fails_with_prefix(hi)) {
        trimmed.traffic.assign(full.begin(), full.begin() + hi);
        say("trimmed traffic from " + std::to_string(full.size()) + " to " +
            std::to_string(hi) + " injections");
      } else {
        say("traffic trim not monotone; keeping the full schedule");
      }
    }
  }

  res.final_faults = faults.size();
  res.minimized = std::move(trimmed);
  say("minimal failing set: " + std::to_string(faults.size()) + " faults, " +
      std::to_string(res.runs) + " runs");
  return res;
}

}  // namespace hybridnoc
