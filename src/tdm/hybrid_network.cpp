#include "tdm/hybrid_network.hpp"

#include <algorithm>
#include <optional>
#include <vector>

namespace hybridnoc {

HybridNetwork::HybridNetwork(const NocConfig& cfg)
    : detail::ControllerHolder(cfg),
      Network(
          cfg,
          [this](const NocConfig& c, NodeId n, const Mesh& m) {
            return std::make_unique<HybridRouter>(
                c, n, m, ControllerHolder::controller.get());
          },
          [this](const NocConfig& c, NodeId n, const Mesh& m) {
            return std::make_unique<HybridNi>(c, n, m,
                                              ControllerHolder::controller.get());
          }) {
  HN_CHECK(cfg.arch == RouterArch::HybridTdm);
  for (NodeId n = 0; n < num_nodes(); ++n) {
    hybrid_ni(n).attach_router(&hybrid_router(n));
  }
  controller().set_reset_hook([this](int new_active) {
    // The controller ticks with now() already advanced past the components'
    // last cycle (now() - 1). Settle lazily accounted energy through that
    // cycle first: the slot-table active size is a per-cycle leakage rate,
    // so slept-through cycles must be folded at the OLD size before it
    // changes underneath a sleeping component.
    const Cycle through = now() == 0 ? 0 : now() - 1;
    for (NodeId n = 0; n < num_nodes(); ++n) {
      hybrid_router(n).settle_energy(through);
      hybrid_ni(n).settle_energy(through);
      hybrid_router(n).slots().set_active_size(new_active);
      hybrid_ni(n).reset_circuit_state();
    }
  });
  controller().set_quiesced_check([this]() {
    // O(1): HybridNi maintains the controller's nis_with_cs_plan gauge on
    // every empty <-> non-empty cs_plan_ transition, so the per-cycle
    // reset-pending poll never has to walk the NIs.
    return controller().nis_with_cs_plan() == 0;
  });
}

void HybridNetwork::tick() {
  Network::tick();
  controller().tick(now());
}

Cycle HybridNetwork::external_next_event(Cycle now) const {
  // The controller ticks with now()+1 right after the components run cycle
  // now(), so to land a controller tick on clock value `ev` the network must
  // execute component cycle ev-1.
  const Cycle ev = controller().next_event(now);
  return ev == kCycleNever ? kCycleNever : ev - 1;
}

void HybridNetwork::save_external_state(StateWriter& w) const {
  HN_CHECK_MSG(fault_mode_ == FaultMode::Off && !recording_,
               "checkpoint excludes the config-fault harness");
  controller().save_state(w);
}

void HybridNetwork::restore_external_state(StateReader& r) {
  HN_CHECK_MSG(fault_mode_ == FaultMode::Off && !recording_,
               "restore excludes the config-fault harness");
  controller().restore_state(r);
}

// ---------------------------------------------------------------------------
// Config-message fault injection, recording and replay
// ---------------------------------------------------------------------------

namespace {

ConfigKind config_kind_of(MsgType t) {
  switch (t) {
    case MsgType::SetupRequest: return ConfigKind::Setup;
    case MsgType::Teardown: return ConfigKind::Teardown;
    case MsgType::AckSuccess: return ConfigKind::AckSuccess;
    case MsgType::AckFailure:
    case MsgType::Data:
      break;  // failure acks are minted in place by routers, never dispatched
  }
  HN_CHECK_MSG(false, "unexpected message type at config dispatch");
  return ConfigKind::Setup;
}

FaultAction to_fault_action(ConfigFaultDecision::Action a) {
  switch (a) {
    case ConfigFaultDecision::Action::None: return FaultAction::None;
    case ConfigFaultDecision::Action::Drop: return FaultAction::Drop;
    case ConfigFaultDecision::Action::Delay: return FaultAction::Delay;
    case ConfigFaultDecision::Action::Duplicate: return FaultAction::Duplicate;
  }
  return FaultAction::None;
}

ConfigFaultDecision::Action from_fault_action(FaultAction a) {
  switch (a) {
    case FaultAction::None: return ConfigFaultDecision::Action::None;
    case FaultAction::Drop: return ConfigFaultDecision::Action::Drop;
    case FaultAction::Delay: return ConfigFaultDecision::Action::Delay;
    case FaultAction::Duplicate: return ConfigFaultDecision::Action::Duplicate;
    case FaultAction::Corrupt:  // link/router faults: never on config records
    case FaultAction::Stuck:
    case FaultAction::Kill:
      break;
  }
  return ConfigFaultDecision::Action::None;
}

}  // namespace

ConfigFaultDecision HybridNetwork::next_fault() {
  ConfigFaultDecision d;
  if (fault_rng_.bernoulli(fault_params_.drop_prob)) {
    d.action = ConfigFaultDecision::Action::Drop;
    ++faults_dropped_;
  } else if (fault_rng_.bernoulli(fault_params_.delay_prob)) {
    d.action = ConfigFaultDecision::Action::Delay;
    d.delay = 1 + fault_rng_.uniform_int(
                      std::max<Cycle>(fault_params_.max_delay_cycles, 1));
    ++faults_delayed_;
  } else if (fault_rng_.bernoulli(fault_params_.dup_prob)) {
    d.action = ConfigFaultDecision::Action::Duplicate;
    ++faults_duplicated_;
  }
  return d;
}

ConfigFaultDecision HybridNetwork::on_config_dispatch(const PacketPtr& pkt,
                                                      Cycle now) {
  const ConfigKind kind = config_kind_of(pkt->type);
  ConfigFaultDecision d;
  if (fault_mode_ == FaultMode::Seeded) {
    d = next_fault();
  } else if (fault_mode_ == FaultMode::Replay) {
    ++replay_events_;
    const int occ = replay_occurrence_[fault_record_key(kind, pkt->src,
                                                        pkt->dst, 0)]++;
    const auto it = replay_index_.find(
        fault_record_key(kind, pkt->src, pkt->dst, occ));
    if (it != replay_index_.end()) {
      const FaultRecord& r = replay_trace_.records[it->second];
      d.action = from_fault_action(r.action);
      d.delay = r.delay;
      ++replay_applied_;
      switch (d.action) {
        case ConfigFaultDecision::Action::Drop: ++faults_dropped_; break;
        case ConfigFaultDecision::Action::Delay: ++faults_delayed_; break;
        case ConfigFaultDecision::Action::Duplicate:
          ++faults_duplicated_;
          break;
        case ConfigFaultDecision::Action::None: break;
      }
    }
    if (replay_audit_each_event_) {
      // The per-event invariant is "every installed window still walks its
      // path" — orphan entries are legal mid-flight (a setup reserves hop
      // by hop before its window is installed by the returning ack).
      if (audit_reservations().broken_windows > 0) ++replay_audit_failures_;
    }
  }
  if (recording_) {
    const int occ = record_occurrence_[fault_record_key(kind, pkt->src,
                                                        pkt->dst, 0)]++;
    recorded_trace_.records.push_back({now, pkt->id, kind, pkt->src, pkt->dst,
                                       occ, to_fault_action(d.action),
                                       d.delay});
  }
  return d;
}

void HybridNetwork::update_fault_hooks() {
  ConfigFaultHook hook;
  if (fault_mode_ != FaultMode::Off || recording_) {
    hook = [this](const PacketPtr& p, Cycle at) {
      return on_config_dispatch(p, at);
    };
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    hybrid_ni(n).set_config_fault_hook(hook);
  }
  // The dispatch hook funnels every NI into shared state (the fault RNG,
  // occurrence maps, the recorded trace — and replay audits read all
  // routers' tables mid-dispatch), and its event order is part of the
  // recorded artifact. While any mode is armed the parallel engine must
  // execute cycles serially in the exact global component order.
  set_engine_force_serial(fault_mode_ != FaultMode::Off || recording_);
}

void HybridNetwork::reset_fault_counters() {
  faults_dropped_ = 0;
  faults_delayed_ = 0;
  faults_duplicated_ = 0;
}

void HybridNetwork::enable_config_faults(const ConfigFaultParams& p) {
  HN_CHECK_MSG(fault_mode_ != FaultMode::Replay,
               "seeded faults and replay are mutually exclusive");
  fault_params_ = p;
  fault_rng_.reseed(p.seed);
  reset_fault_counters();
  fault_mode_ = FaultMode::Seeded;
  update_fault_hooks();
}

void HybridNetwork::disable_config_faults() {
  if (fault_mode_ == FaultMode::Seeded) fault_mode_ = FaultMode::Off;
  update_fault_hooks();
}

void HybridNetwork::start_fault_trace_recording() {
  recording_ = true;
  recorded_trace_ = FaultTrace{};
  record_occurrence_.clear();
  update_fault_hooks();
}

void HybridNetwork::stop_fault_trace_recording() {
  recording_ = false;
  update_fault_hooks();
}

void HybridNetwork::enable_config_fault_replay(const FaultTrace& trace,
                                               bool audit_each_event) {
  HN_CHECK_MSG(fault_mode_ != FaultMode::Seeded,
               "seeded faults and replay are mutually exclusive");
  replay_trace_ = trace;
  replay_index_.clear();
  replay_occurrence_.clear();
  for (std::size_t i = 0; i < replay_trace_.records.size(); ++i) {
    const FaultRecord& r = replay_trace_.records[i];
    // Data-plane records (v2) replay through the FaultModel, not the config
    // dispatch hook; leave them out of the match index.
    if (r.kind == ConfigKind::Link || r.kind == ConfigKind::Router) continue;
    const auto [it, inserted] = replay_index_.emplace(
        fault_record_key(r.kind, r.src, r.dst, r.occurrence), i);
    (void)it;
    HN_CHECK_MSG(inserted, "duplicate (kind, src, dst, occurrence) key in fault trace");
  }
  replay_audit_each_event_ = audit_each_event;
  replay_events_ = 0;
  replay_applied_ = 0;
  replay_audit_failures_ = 0;
  reset_fault_counters();
  fault_mode_ = FaultMode::Replay;
  update_fault_hooks();
}

void HybridNetwork::disable_config_fault_replay() {
  if (fault_mode_ == FaultMode::Replay) fault_mode_ = FaultMode::Off;
  update_fault_hooks();
}

std::uint64_t HybridNetwork::slot_state_digest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;  // FNV prime
  };
  const int S = controller().active_slots();
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const auto& st = static_cast<const HybridRouter&>(router(n)).slots();
    if (st.valid_entries() == 0) continue;  // nothing to mix from this router
    for (int s = 0; s < S; ++s) {
      for (int j = 0; j < kNumPorts; ++j) {
        const Port in = static_cast<Port>(j);
        if (st.valid_entries(in) == 0) continue;
        const auto out = st.lookup_slot(s, in);
        if (!out) continue;
        const auto owner = st.owner_at(s, in);
        mix(static_cast<std::uint64_t>(n));
        mix(static_cast<std::uint64_t>(s));
        mix(static_cast<std::uint64_t>(j));
        mix(static_cast<std::uint64_t>(*out));
        mix(owner ? *owner : 0);
      }
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Reservation consistency audit
// ---------------------------------------------------------------------------

ReservationAudit HybridNetwork::audit_reservations() const {
  ReservationAudit a;

  // Fast path: with no NI holding connection windows and no valid slot-table
  // entries anywhere, the walk and the orphan scan are both vacuous. This is
  // the common case for replay-time auditing of a quiesced network.
  bool any_windows = false;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (static_cast<const HybridNi&>(ni(n)).has_connections()) {
      any_windows = true;
      break;
    }
  }
  if (!any_windows && total_valid_slot_entries() == 0) return a;

  const int S = controller().active_slots();
  // Epoch-stamped scratch: reused across calls without clearing. A cell is
  // visited iff it equals the current epoch; resizing (mesh is fixed, but S
  // grows on dynamic resize) or epoch wrap-around forces a zero refill.
  const size_t stride = static_cast<size_t>(S) * kNumPorts;
  const size_t needed = static_cast<size_t>(num_nodes()) * stride;
  if (audit_scratch_.size() != needed) {
    audit_scratch_.assign(needed, 0);
    audit_epoch_ = 0;
  }
  if (++audit_epoch_ == 0) {
    std::fill(audit_scratch_.begin(), audit_scratch_.end(), 0u);
    audit_epoch_ = 1;
  }
  const std::uint32_t epoch = audit_epoch_;
  std::uint32_t* const visited = audit_scratch_.data();

  for (NodeId n = 0; n < num_nodes(); ++n) {
    const auto& src = static_cast<const HybridNi&>(ni(n));
    for (const NodeId dst : src.connection_dsts()) {
      const int dur = src.connection_duration(dst);
      for (const auto& [first_slot, owner] : src.connection_windows(dst)) {
        ++a.windows_walked;
        NodeId node = n;
        Port in = Port::Local;
        int slot = first_slot;
        bool ok = true;
        bool done = false;
        // A minimal path visits at most num_nodes() routers; anything longer
        // means the tables describe a loop.
        for (int hop = 0; hop < num_nodes() && ok && !done; ++hop) {
          const auto& st =
              static_cast<const HybridRouter&>(router(node)).slots();
          std::optional<Port> out;
          for (int d = 0; d < dur; ++d) {
            const int s = (slot + d) & (S - 1);
            const auto o = st.lookup_slot(s, in);
            const auto ow = st.owner_at(s, in);
            if (!o || !ow || *ow != owner || (out && *o != *out)) {
              ok = false;
              break;
            }
            out = o;
            visited[static_cast<size_t>(node) * stride +
                    static_cast<size_t>(s) * kNumPorts +
                    static_cast<size_t>(in)] = epoch;
          }
          if (!ok) break;
          if (*out == Port::Local) {
            done = (node == dst);
            ok = done;
            break;
          }
          if (!mesh().has_neighbor(node, *out)) {
            ok = false;
            break;
          }
          node = mesh().neighbor(node, *out);
          in = opposite(*out);
          slot = (slot + 2) & (S - 1);
        }
        if (!ok || !done) ++a.broken_windows;
      }
    }
  }

  for (NodeId n = 0; n < num_nodes(); ++n) {
    const auto& st = static_cast<const HybridRouter&>(router(n)).slots();
    if (st.valid_entries() == 0) continue;  // no entries -> no orphans here
    for (int s = 0; s < S; ++s) {
      for (int j = 0; j < kNumPorts; ++j) {
        if (st.valid_entries(static_cast<Port>(j)) == 0) continue;
        if (st.lookup_slot(s, static_cast<Port>(j)).has_value() &&
            visited[static_cast<size_t>(n) * stride +
                    static_cast<size_t>(s) * kNumPorts +
                    static_cast<size_t>(j)] != epoch) {
          ++a.orphan_entries;
        }
      }
    }
  }
  return a;
}

int HybridNetwork::total_active_connections() const {
  int t = 0;
  for (NodeId n = 0; n < num_nodes(); ++n)
    t += static_cast<const HybridNi&>(ni(n)).active_connections();
  return t;
}

int HybridNetwork::total_valid_slot_entries() const {
  int t = 0;
  for (NodeId n = 0; n < num_nodes(); ++n)
    t += static_cast<const HybridRouter&>(router(n)).slots().valid_entries();
  return t;
}

}  // namespace hybridnoc
