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
  HN_CHECK(src < (1 << 20) && dst < (1 << 20) && occurrence < (1 << 20));
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

/// Parse one record line (comment already stripped, known non-blank).
FaultRecord parse_record(const std::string& line) {
  std::istringstream ls(line);
  FaultRecord r;
  std::string kind, action;
  HN_CHECK_MSG(static_cast<bool>(ls >> r.cycle >> r.msg_id >> kind >> r.src >>
                                 r.dst >> r.occurrence >> action >> r.delay),
               "malformed fault-trace record");
  const auto k = parse_config_kind(kind);
  const auto a = parse_fault_action(action);
  HN_CHECK_MSG(k.has_value(), "unknown config kind in fault trace");
  HN_CHECK_MSG(a.has_value(), "unknown fault action in fault trace");
  HN_CHECK_MSG(r.src >= 0 && r.dst >= 0 && r.occurrence >= 0,
               "invalid fault-trace record");
  r.kind = *k;
  r.action = *a;
  // Data-plane records (v2) carry a port index in dst and a restricted
  // action set; reject inconsistent combinations at the parse boundary.
  if (r.kind == ConfigKind::Link) {
    HN_CHECK_MSG(r.dst >= 1 && r.dst < kNumPorts, "invalid link fault port");
    HN_CHECK_MSG(r.action == FaultAction::Corrupt ||
                     r.action == FaultAction::Stuck ||
                     r.action == FaultAction::Kill,
                 "invalid link fault action");
  } else if (r.kind == ConfigKind::Router) {
    HN_CHECK_MSG(r.action == FaultAction::Kill, "invalid router fault action");
  } else {
    HN_CHECK_MSG(r.action != FaultAction::Corrupt &&
                     r.action != FaultAction::Stuck &&
                     r.action != FaultAction::Kill,
                 "data-plane action on a config record");
  }
  return r;
}

/// Strip `#` comments; returns false for lines with no content left.
bool strip_to_content(std::string& line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  return line.find_first_not_of(" \t\r") != std::string::npos;
}

void check_version_header(std::istream& in, const char* magic) {
  std::string word;
  int version = -1;
  char v = '\0';
  HN_CHECK_MSG(static_cast<bool>(in >> word >> v >> version) && word == magic &&
                   v == 'v',
               "bad fault-trace header");
  HN_CHECK_MSG(version >= 1 && version <= FaultTrace::kVersion,
               "unsupported fault-trace version");
  std::string rest;
  std::getline(in, rest);  // consume the remainder of the header line
}

}  // namespace

void save_fault_trace(std::ostream& out, const FaultTrace& trace) {
  out << kTraceMagic << " v" << FaultTrace::kVersion << '\n';
  out << "# cycle msg_id kind src dst occurrence action delay\n";
  for (const auto& r : trace.records) write_record(out, r);
}

FaultTrace load_fault_trace(std::istream& in) {
  check_version_header(in, kTraceMagic);
  FaultTrace t;
  std::string line;
  while (std::getline(in, line)) {
    if (!strip_to_content(line)) continue;
    t.records.push_back(parse_record(line));
  }
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

FaultScenario load_fault_scenario(std::istream& in) {
  check_version_header(in, kScenarioMagic);
  FaultScenario s;
  std::string line;
  bool saw_end = false;
  while (!saw_end && std::getline(in, line)) {
    if (!strip_to_content(line)) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    auto read_u64 = [&ls, &key]() {
      std::uint64_t v = 0;
      HN_CHECK_MSG(static_cast<bool>(ls >> v),
                   "malformed scenario field value");
      (void)key;
      return v;
    };
    auto read_double = [&ls]() {
      double v = 0;
      HN_CHECK_MSG(static_cast<bool>(ls >> v),
                   "malformed scenario field value");
      return v;
    };
    if (key == "k") s.k = static_cast<int>(read_u64());
    else if (key == "slot_table_size") s.slot_table_size = static_cast<int>(read_u64());
    else if (key == "dynamic_slot_sizing") s.dynamic_slot_sizing = read_u64() != 0;
    else if (key == "initial_active_slots") s.initial_active_slots = static_cast<int>(read_u64());
    else if (key == "path_freq_threshold") s.path_freq_threshold = static_cast<int>(read_u64());
    else if (key == "policy_epoch_cycles") s.policy_epoch_cycles = static_cast<int>(read_u64());
    else if (key == "path_idle_timeout") s.path_idle_timeout = read_u64();
    else if (key == "pending_setup_timeout") s.pending_setup_timeout_cycles = read_u64();
    else if (key == "reservation_lease") s.reservation_lease_cycles = read_u64();
    else if (key == "run_cycles") s.run_cycles = read_u64();
    else if (key == "cooldown_cycles") s.cooldown_cycles = read_u64();
    else if (key == "resize") s.resizes.push_back(read_u64());
    else if (key == "drop_prob") s.fault_params.drop_prob = read_double();
    else if (key == "delay_prob") s.fault_params.delay_prob = read_double();
    else if (key == "dup_prob") s.fault_params.dup_prob = read_double();
    else if (key == "max_delay_cycles") s.fault_params.max_delay_cycles = read_u64();
    else if (key == "fault_seed") s.fault_params.seed = read_u64();
    else if (key == "link_ber") s.link_ber = read_double();
    else if (key == "link_fault_seed") s.link_fault_seed = read_u64();
    else if (key == "e2e_recovery") s.e2e_recovery = read_u64() != 0;
    else if (key == "retx_timeout") s.retx_timeout_cycles = read_u64();
    else if (key == "retx_backoff_cap") s.retx_backoff_cap_cycles = read_u64();
    else if (key == "max_retx_attempts") s.max_retx_attempts = static_cast<int>(read_u64());
    else if (key == "cs_fail_threshold") s.cs_fail_threshold = static_cast<int>(read_u64());
    else if (key == "watchdog_stall") s.watchdog_stall_cycles = read_u64();
    else if (key == "setup_backoff_base") s.setup_backoff_base_cycles = read_u64();
    else if (key == "setup_backoff_cap") s.setup_backoff_cap_cycles = read_u64();
    else if (key == "kill_link" || key == "stick_link") {
      FaultScenario::LinkFaultSpec d;
      d.node = static_cast<NodeId>(read_u64());
      d.port = static_cast<int>(read_u64());
      d.start = read_u64();
      if (key == "stick_link") d.duration = read_u64();
      HN_CHECK_MSG(d.port >= 1 && d.port < kNumPorts,
                   "invalid scenario link fault port");
      (key == "kill_link" ? s.dead_links : s.stuck_links).push_back(d);
    } else if (key == "kill_router") {
      const auto node = static_cast<NodeId>(read_u64());
      s.dead_routers.emplace_back(node, read_u64());
    } else if (key == "invariant") {
      HN_CHECK_MSG(static_cast<bool>(ls >> s.invariant),
                   "malformed scenario field value");
    } else if (key == "traffic") {
      const auto n = read_u64();
      while (s.traffic.size() < n && std::getline(in, line)) {
        if (!strip_to_content(line)) continue;
        std::istringstream es(line);
        TraceEntry e;
        HN_CHECK_MSG(
            static_cast<bool>(es >> e.cycle >> e.src >> e.dst >> e.flits),
            "malformed scenario traffic entry");
        HN_CHECK_MSG(e.flits >= 1 && e.src >= 0 && e.dst >= 0 &&
                         (s.traffic.empty() || s.traffic.back().cycle <= e.cycle),
                     "invalid scenario traffic entry");
        s.traffic.push_back(e);
      }
      HN_CHECK_MSG(s.traffic.size() == n, "truncated scenario traffic block");
    } else if (key == "faults") {
      const auto n = read_u64();
      while (s.faults.records.size() < n && std::getline(in, line)) {
        if (!strip_to_content(line)) continue;
        s.faults.records.push_back(parse_record(line));
      }
      HN_CHECK_MSG(s.faults.records.size() == n,
                   "truncated scenario fault block");
    } else if (key == "end") {
      saw_end = true;
    } else {
      HN_CHECK_MSG(false, "unknown scenario field");
    }
  }
  HN_CHECK_MSG(saw_end, "scenario file missing end marker");
  return s;
}

FaultScenario read_fault_scenario_file(const std::string& path) {
  std::ifstream in(path);
  HN_CHECK_MSG(in.good(), "cannot open fault scenario file");
  return load_fault_scenario(in);
}

void write_fault_scenario_file(const std::string& path,
                               const FaultScenario& s) {
  // Atomic write-temp-then-rename: an interrupted writer (shrinker, test
  // fixture recorder) never leaves a torn scenario behind.
  std::ostringstream out;
  save_fault_scenario(out, s);
  std::string err;
  HN_CHECK_MSG(write_file_atomic(path, out.str(), &err),
               "cannot write fault scenario file");
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

}  // namespace

ScenarioOutcome run_fault_scenario(const FaultScenario& s, ScenarioMode mode,
                                   bool audit_each_event,
                                   FaultTrace* recorded) {
  HybridNetwork net(s.to_config());
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
  HN_CHECK_MSG(false, "unknown invariant name");
  return false;
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

  HN_CHECK_MSG(still_fails(faults),
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
