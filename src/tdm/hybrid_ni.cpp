#include "tdm/hybrid_ni.hpp"

#include <algorithm>
#include <vector>

#include "common/pool.hpp"
#include "common/state_io.hpp"
#include "tdm/switching_policy.hpp"

namespace hybridnoc {

HybridNi::HybridNi(const NocConfig& cfg, NodeId id, const Mesh& mesh,
                   TdmController* ctrl)
    : NetworkInterface(cfg, id, mesh),
      dlt_(cfg.dlt_entries),
      ctrl_(ctrl),
      rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id) + 1) {
  HN_CHECK(ctrl_ != nullptr);
}

void HybridNi::attach_router(HybridRouter* r) {
  hrouter_ = r;
  r->set_ni_hooks(this);
}

bool HybridNi::idle() const {
  return NetworkInterface::idle() && cs_plan_.empty() &&
         delayed_config_.empty() && fault_teardowns_.empty() &&
         deferred_setups_.empty();
}

void HybridNi::reset_circuit_state() {
  HN_CHECK(cs_plan_.empty());
  connections_.clear();
  pending_.clear();
  pending_dsts_.clear();
  // Held-back config messages reference the wiped tables; a router would
  // discard them as stale anyway, so drop them at the source.
  delayed_config_.clear();
  // Deferred liveness teardowns and backed-off setups reference wiped
  // connections/pending entries; the reset reclaimed everything they would.
  fault_teardowns_.clear();
  deferred_setups_.clear();
  dlt_.clear();
  freq_.clear();
  cooldown_until_.clear();
}

std::vector<std::pair<int, PacketId>> HybridNi::connection_windows(
    NodeId dst) const {
  std::vector<std::pair<int, PacketId>> out;
  const auto it = connections_.find(dst);
  if (it == connections_.end()) return out;
  for (size_t i = 0; i < it->second.slots.size(); ++i) {
    out.emplace_back(it->second.slots[i], it->second.setup_ids[i]);
  }
  return out;
}

std::vector<NodeId> HybridNi::connection_dsts() const {
  std::vector<NodeId> out;
  out.reserve(connections_.size());
  for (const auto& [dst, conn] : connections_) out.push_back(dst);
  return out;
}

int HybridNi::connection_duration(NodeId dst) const {
  const auto it = connections_.find(dst);
  return it == connections_.end() ? 0 : it->second.duration;
}

void HybridNi::send(PacketPtr pkt, Cycle now) {
  HN_CHECK(pkt && pkt->src == id_);
  // Wake before any early return: a circuit-scheduled packet bypasses
  // NetworkInterface::send (and its wake), but still mutated freq_ — the NI
  // must tick this cycle so the policy epoch sees what the full sweep sees.
  sched_wake(now);
  if (pkt->created == 0) pkt->created = now;
  if (pkt->final_dst == kInvalidNode) pkt->final_dst = pkt->dst;
  // Admit before the circuit try: a circuit-scheduled packet bypasses
  // NetworkInterface::send, but must still be end-to-end tracked (and must
  // fail cleanly when its destination is partitioned off). e2e_admit is
  // idempotent, so the packet-switched fallback re-admitting is harmless.
  if (!pkt->is_config() && !e2e_admit(pkt, now)) return;
  if (!pkt->is_config() && pkt->cs_eligible && !frozen_ && ctrl_->cs_allowed()) {
    ++freq_[pkt->dst];
    if (try_circuit(pkt, now)) return;
    maybe_initiate_setup(pkt->dst, now, /*force=*/false);
  }
  NetworkInterface::send(std::move(pkt), now);
}

// ---------------------------------------------------------------------------
// Circuit transmission
// ---------------------------------------------------------------------------

std::optional<Cycle> HybridNi::find_start(int slot, int nflits, Cycle now) const {
  const int S = ctrl_->active_slots();
  // Earliest crossbar cycle congruent to `slot`, late enough that the first
  // injection-channel write lands strictly in a future NI tick.
  const Cycle base = now + 3;
  const std::int64_t rem =
      ((static_cast<std::int64_t>(slot) - static_cast<std::int64_t>(base % S)) % S +
       S) % S;
  Cycle c = base + static_cast<Cycle>(rem);
  for (int attempt = 0; attempt < 2; ++attempt, c += static_cast<Cycle>(S)) {
    bool free = true;
    for (int i = 0; i < nflits && free; ++i) {
      if (cs_plan_.contains(c - 2 + static_cast<Cycle>(i))) free = false;
    }
    if (free) return c;
  }
  return std::nullopt;
}

HybridNi::CsAttempt HybridNi::schedule_cs(const PacketPtr& pkt,
                                          const std::vector<int>& slots,
                                          int cs_hops, Cycle extra_latency,
                                          int share_in, int share_out,
                                          Cycle now) {
  // Only a hopping-off message needs the extra header flit (Table I:
  // "circuit-switched packet when vicinity-sharing applied"); packets
  // riding straight to the path destination stay at 4 flits and leave the
  // reservation's fifth slot to time-slot stealing.
  const int nflits =
      cfg_.cs_data_flits + (pkt->final_dst != pkt->dst ? 1 : 0);
  HN_CHECK(nflits <= cfg_.reservation_duration());
  // Earliest feasible window among the pair's reservations.
  std::optional<Cycle> start;
  for (const int slot : slots) {
    const auto s = find_start(slot, nflits, now);
    if (s && (!start || *s < *start)) start = s;
  }
  if (!start) {
    ++counts_[NiCounter::CsRejectedNoWindow];
    return CsAttempt::NoWindow;
  }
  const double cs_latency = static_cast<double>(
      *start - now + cs_flight_cycles(cs_hops, nflits) + extra_latency);
  if (!take_circuit(cfg_, cs_latency, cs_hops, ewma_inject_delay(),
                    pkt->slack)) {
    ++counts_[NiCounter::CsRejectedLatency];
    return CsAttempt::NotWorth;
  }

  pkt->switching = Switching::Circuit;
  pkt->num_flits = nflits;
  pkt->share_in_port = share_in;
  pkt->share_out_port = share_out;
  // Commit point: every planned flit carries a raw pointer; the flight
  // anchor keeps the packet alive until all of them are terminally consumed
  // (ejected, evaporated, or cancelled by a bounce).
  begin_flight(pkt);
  const bool plan_was_empty = cs_plan_.empty();
  for (int i = 0; i < nflits; ++i) {
    Flit f;
    f.pkt = pkt.get();
    f.seq = i;
    f.switching = Switching::Circuit;
    if (nflits == 1) {
      f.type = FlitType::HeadTail;
    } else if (i == 0) {
      f.type = FlitType::Head;
    } else if (i == nflits - 1) {
      f.type = FlitType::Tail;
    } else {
      f.type = FlitType::Body;
    }
    cs_plan_.emplace_unique(*start - 2 + static_cast<Cycle>(i), f);
  }
  note_cs_plan_change(plan_was_empty);
  if (!pkt->reinjected) ++counts_[NiCounter::DataPacketsSent];
  ++counts_[NiCounter::CsPackets];
  // The transmission is committed to reserved slots: arm the end-to-end
  // retransmission timer from the head flit's planned launch cycle.
  if (cfg_.e2e_recovery) e2e_launched(pkt, *start - 2);
  return CsAttempt::Scheduled;
}

bool HybridNi::try_circuit(const PacketPtr& pkt, Cycle now) {
  const NodeId dst = pkt->dst;

  // 1. Dedicated connection.
  if (auto it = connections_.find(dst); it != connections_.end()) {
    // A doomed circuit (liveness verdict reached, teardown deferred) must
    // not take new traffic: packet-switch until the path is rebuilt.
    if (it->second.doomed) return false;
    const CsAttempt r = schedule_cs(pkt, it->second.slots,
                                    mesh_.hop_distance(id_, dst), 0, -1, -1, now);
    if (r == CsAttempt::Scheduled) {
      it->second.last_used = now;
      return true;
    }
    if (r == CsAttempt::NoWindow) {
      // The pair's reservations are oversubscribed: ask for an additional
      // window (finer time-division granularity, Section II-C).
      maybe_initiate_setup(dst, now, /*force=*/true, /*supplement=*/true);
    }
    return false;  // path exists but no usable slot now -> packet-switch
  }

  // 2. Hitchhike a path through this node toward the same destination.
  // (The DLT is cleared on every table reset, so entries are always from
  // the current generation; the stored generation is the belt-and-braces
  // guard against riding a wiped reservation.)
  if (cfg_.hitchhiker_sharing) {
    if (auto e = dlt_.find(dst);
        e && e->generation == ctrl_->table_generation()) {
      if (schedule_cs(pkt, {e->slot}, mesh_.hop_distance(id_, dst), 0,
                      static_cast<int>(e->in), static_cast<int>(e->out),
                      now) == CsAttempt::Scheduled) {
        dlt_.touch(dst, now);
        ++counts_[NiCounter::HitchhikePackets];
        return true;
      }
    }
  }

  // 3. Vicinity: ride an own connection to a neighbour of dst, hop off
  // there into the packet-switched network (Section III-A2).
  if (cfg_.vicinity_sharing) {
    // One packet-switched hop after hop-off.
    const auto hopoff_cost =
        static_cast<Cycle>(zero_load_ps_latency(1, cfg_.ps_data_flits));
    for (auto& [cdst, conn] : connections_) {
      if (conn.doomed || !mesh_.adjacent(cdst, dst)) continue;
      pkt->dst = cdst;  // network destination is the hop-off node
      if (schedule_cs(pkt, conn.slots, mesh_.hop_distance(id_, cdst),
                      hopoff_cost, -1, -1, now) == CsAttempt::Scheduled) {
        conn.last_used = now;
        ++counts_[NiCounter::VicinityPackets];
        return true;
      }
      pkt->dst = dst;
      // Source-side contention: bump the reservation's 2-bit counter; at
      // '10' request a dedicated path (Section III-A2).
      if (conn.vicinity_fail < 3) ++conn.vicinity_fail;
      if (conn.vicinity_fail >= 2) {
        conn.vicinity_fail = 0;
        maybe_initiate_setup(dst, now, /*force=*/true);
      }
      break;
    }
    if (pkt->dst != dst) pkt->dst = dst;

    // 4. Combined hitchhiker + vicinity: ride a DLT path whose destination
    // is adjacent to dst.
    if (cfg_.hitchhiker_sharing) {
      if (auto e = dlt_.find_adjacent(
              dst, [this](NodeId a, NodeId b) { return mesh_.adjacent(a, b); });
          e && e->generation == ctrl_->table_generation()) {
        pkt->dst = e->dest;
        if (schedule_cs(pkt, {e->slot}, mesh_.hop_distance(id_, e->dest),
                        hopoff_cost, static_cast<int>(e->in),
                        static_cast<int>(e->out),
                        now) == CsAttempt::Scheduled) {
          dlt_.touch(e->dest, now);
          ++counts_[NiCounter::HitchhikePackets];
          ++counts_[NiCounter::VicinityPackets];
          return true;
        }
        pkt->dst = dst;
      }
    }
  }
  return false;
}

bool HybridNi::circuit_inject(Cycle now) {
  epoch_tick(now);
  while (!delayed_config_.empty() && delayed_config_.front().first <= now) {
    auto p = std::move(delayed_config_.front().second);
    delayed_config_.pop_front();
    ctrl_->config_launched();
    NetworkInterface::send(std::move(p), now);
  }
  while (!fault_teardowns_.empty() && fault_teardowns_.front().first <= now) {
    const NodeId dst = fault_teardowns_.front().second;
    fault_teardowns_.pop_front();
    execute_fault_teardown(dst, now);
  }
  while (!deferred_setups_.empty() && deferred_setups_.front().first <= now) {
    const DeferredSetup d = deferred_setups_.front().second;
    deferred_setups_.pop_front();
    pending_dsts_.erase(d.dst);
    if (frozen_ || !ctrl_->cs_allowed()) {
      // The world changed while we backed off; give up like an exhausted
      // retry would.
      ++counts_[NiCounter::SetupGiveUps];
      cooldown_until_[d.dst] = give_up_cooldown(cfg_, now);
      continue;
    }
    send_setup(d.dst, d.retries, now, d.avoid_slot);
  }
  // The plan is cycle-sorted and never missed (checked below), so the only
  // candidate is the front entry — one compare per tick, no lookup.
  if (cs_plan_.empty() || cs_plan_.front().first != now) {
    HN_CHECK_MSG(cs_plan_.empty() || cs_plan_.front().first > now,
                 "missed circuit injection slot");
    return false;
  }
  Flit f = cs_plan_.front().second;
  cs_plan_.pop_front();
  note_cs_plan_change(/*was_empty=*/false);
  if (f.is_head() && f.pkt->is_hitchhiker()) {
    // Re-validate the shared entry before committing the packet; the ride
    // may have been torn down since scheduling.
    if (!hrouter_->share_entry_ok(now + 2,
                                  static_cast<Port>(f.pkt->share_in_port),
                                  static_cast<Port>(f.pkt->share_out_port))) {
      // Bounce while this head's flight count still pins the packet, then
      // consume it — the last of the packet's flits to go.
      bounce_packet(f.pkt, f.pkt->dst, now);
      (void)consume_flit(f.pkt);
      return false;  // cycle goes to packet-switched traffic
    }
  }
  if (f.is_head()) {
    f.pkt->injected = now;
  }
  ++counts_[NiCounter::CsDataFlits];
  ++flits_by_class_[static_cast<size_t>(f.pkt->traffic_class)];
  ctrl_->cs_flit_launched();
  inject_->send(std::move(f), now);
  return true;
}

void HybridNi::bounce_packet(Packet* pkt, NodeId ride_dest, Cycle now) {
  // Cancel flits not yet on the wire, consuming each one's flight count.
  // The caller still holds the head's count, so the anchor cannot drop and
  // `pkt` stays valid through the rest of this function.
  const bool plan_was_empty = cs_plan_.empty();
  cs_plan_.erase_if([&](Cycle, const Flit& f) {
    if (f.pkt != pkt) return false;
    (void)consume_flit(f.pkt);
    return true;
  });
  note_cs_plan_change(plan_was_empty);
  ++counts_[NiCounter::HitchhikeBounces];
  if (dlt_.record_failure(ride_dest)) {
    // Counter saturated at '10': stop sharing, ask for a dedicated path.
    maybe_initiate_setup(pkt->final_dst, now, /*force=*/true);
  }
  // The bounced message keeps its identity: none of its circuit flits were
  // forwarded (the head bounced at the hop-on crossbar and stray body flits
  // evaporate there), so no partial assembly exists anywhere.
  reinject_packet_switched(*pkt, now);
}

void HybridNi::reinject_packet_switched(const Packet& pkt, Cycle now) {
  auto copy = make_packet();
  copy->id = pkt.id;
  copy->src = id_;
  copy->dst = pkt.final_dst;
  copy->final_dst = pkt.final_dst;
  copy->num_flits = cfg_.ps_data_flits;
  copy->created = pkt.created;
  copy->traffic_class = pkt.traffic_class;
  copy->payload = pkt.payload;
  copy->slack = pkt.slack;
  copy->cs_eligible = false;
  copy->reinjected = true;
  // Keep the end-to-end identity: the destination's dedup key and the ack's
  // return address must match what the origin tracked.
  copy->origin = pkt.origin;
  copy->retx_of = pkt.retx_of;
  send_priority(std::move(copy), now);
}

// ---------------------------------------------------------------------------
// Path configuration protocol endpoints
// ---------------------------------------------------------------------------

PacketPtr HybridNi::make_config(MsgType type, NodeId dst, Cycle now) const {
  auto p = make_packet();
  p->id = const_cast<HybridNi*>(this)->fresh_packet_id();
  p->type = type;
  p->src = id_;
  p->dst = dst;
  p->final_dst = dst;
  p->num_flits = cfg_.config_flits;
  p->traffic_class = TrafficClass::Config;
  p->cs_eligible = false;
  p->created = now;
  p->table_gen = ctrl_->table_generation();
  return p;
}

void HybridNi::dispatch_config(PacketPtr p, Cycle now) {
  using Action = ConfigFaultDecision::Action;
  if (fault_hook_) {
    const ConfigFaultDecision d = fault_hook_(p, now);
    switch (d.action) {
      case Action::Drop:
        // The message vanishes before it is ever counted in flight; the
        // protocol's timeout/lease machinery must recover on its own.
        return;
      case Action::Delay:
        delayed_config_.emplace(now + std::max<Cycle>(d.delay, 1),
                                std::move(p));
        return;
      case Action::Duplicate: {
        // A second, independent walker with the same id and payload —
        // routers mutate slot_id in place, so it must be a distinct object.
        auto clone = make_packet(*p);
        ctrl_->config_launched();
        NetworkInterface::send(std::move(clone), now);
        break;
      }
      case Action::None:
        break;
    }
  }
  ctrl_->config_launched();
  NetworkInterface::send(std::move(p), now);
}

bool HybridNi::window_installed(NodeId dst, PacketId setup_id) const {
  const auto it = connections_.find(dst);
  if (it == connections_.end()) return false;
  const auto& ids = it->second.setup_ids;
  return std::find(ids.begin(), ids.end(), setup_id) != ids.end();
}

void HybridNi::expire_pending(Cycle now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.sent_at <= cfg_.pending_setup_timeout_cycles) {
      ++it;
      continue;
    }
    // The setup or its ack was lost. Reclaim whatever prefix the setup
    // reserved (the owner tag makes this safe even if the setup is merely
    // late: it releases only that setup's entries) and unblock the
    // destination so traffic toward it can request a fresh path.
    const PendingSetup p = it->second;
    const PacketId setup_id = it->first;
    it = pending_.erase(it);
    pending_dsts_.erase(p.dst);
    ++counts_[NiCounter::PendingTimeouts];
    send_teardown(p.dst, p.slot, setup_id, now);
  }
}

/// HybridNi's side of the shared setup policy (maybe_setup): its protocol
/// state, and message-based retirement and setup.
struct HybridNi::SetupHost {
  HybridNi& ni;
  int pair_count(NodeId dst) const {
    // find, not operator[]: an inserted entry would change the epoch
    // wakeups and the checkpoint bytes.
    const auto it = ni.freq_.find(dst);
    return it == ni.freq_.end() ? 0 : it->second;
  }
  bool setup_pending(NodeId dst, Cycle) const {
    return ni.pending_dsts_.count(dst) > 0;
  }
  bool cooling_down(NodeId dst, Cycle now) const {
    const auto it = ni.cooldown_until_.find(dst);
    return it != ni.cooldown_until_.end() && now < it->second;
  }
  double local_occupancy() const {
    return ni.hrouter_ ? ni.hrouter_->slots().occupancy() : 0.0;
  }
  ConnectionMap& connections() { return ni.connections_; }
  void retire(ConnectionMap::iterator it, Cycle now) {
    ni.retire_connection(it, now);
  }
  void start_setup(NodeId dst, Cycle now) { ni.send_setup(dst, 0, now); }
};

void HybridNi::maybe_initiate_setup(NodeId dst, Cycle now, bool force,
                                    bool supplement) {
  if (frozen_ || !ctrl_->cs_allowed()) return;
  SetupHost host{*this};
  maybe_setup(cfg_, host, id_, dst, now, force, supplement);
}

void HybridNi::send_setup(NodeId dst, int retries, Cycle now, int avoid_slot) {
  const int dur = cfg_.reservation_duration();
  const int slot =
      choose_setup_slot(rng_, ctrl_->active_slots(), avoid_slot, [&](int s) {
        return !hrouter_ || hrouter_->local_input_free(s, dur);
      });
  auto p = make_config(MsgType::SetupRequest, dst, now);
  p->slot_id = slot;
  p->duration = dur;
  pending_[p->id] = {dst, slot, retries, now};
  pending_dsts_.insert(dst);
  p->payload = p->id;
  ++counts_[NiCounter::SetupsSent];
  dispatch_config(std::move(p), now);
}

void HybridNi::send_teardown(NodeId dst, int slot, PacketId owner, Cycle now,
                             NodeId stop_at) {
  if (stop_at == id_) return;  // setup failed at our own router: nothing reserved
  auto p = make_config(MsgType::Teardown, dst, now);
  p->slot_id = slot;
  p->duration = cfg_.reservation_duration();
  p->teardown_stop = stop_at;
  p->payload = owner;
  dispatch_config(std::move(p), now);
}

void HybridNi::handle_config(const PacketPtr& pkt, Cycle now) {
  ctrl_->config_retired();
  if (pkt->table_gen != ctrl_->table_generation()) {
    // The message was created under a slot-table generation that a dynamic
    // resize has since wiped: every reservation it references is gone, and
    // its slot arithmetic used the old active size. Discard it — the
    // pending/connection state it would have updated was cleared by the
    // reset as well.
    ++counts_[NiCounter::StaleConfigDrops];
    return;
  }
  switch (pkt->type) {
    case MsgType::SetupRequest: {
      // The setup walked the whole path: every hop is reserved. Acknowledge.
      auto ack = make_config(MsgType::AckSuccess, pkt->src, now);
      ack->payload = pkt->payload;
      ack->slot_id = pkt->slot_id;  // slot after the destination router
      ack->duration = pkt->duration;
      // The ack vouches for reservations made under the *setup's*
      // generation; carry it so the source can tell whether they survived.
      ack->table_gen = pkt->table_gen;
      dispatch_config(std::move(ack), now);
      break;
    }
    case MsgType::AckSuccess: {
      const auto it = pending_.find(pkt->payload);
      const int S = ctrl_->active_slots();
      const int hops = mesh_.hop_distance(id_, pkt->src);
      // Reconstruct the source-router slot from the destination-side slot:
      // the setup incremented by 2 at each of hops+1 routers. The generation
      // fence above guarantees S is the same active size the setup used, so
      // the arithmetic is sound.
      const int src_slot =
          (pkt->slot_id - 2 * (hops + 1)) & (S - 1);
      if (it == pending_.end()) {
        if (window_installed(pkt->src, pkt->payload)) {
          // Duplicate of an ack we already processed; the window is live.
          ++counts_[NiCounter::DuplicateAcks];
          break;
        }
        // Orphaned ack (pending state timed out or was lost): release the
        // path we no longer want. The owner tag confines the teardown to
        // that setup's entries.
        ++counts_[NiCounter::OrphanAckTeardowns];
        send_teardown(pkt->src, src_slot, pkt->payload, now);
        break;
      }
      if (src_slot != it->second.slot) {
        // The ack's slot walk disagrees with what we recorded — the message
        // is damaged or mis-sequenced. Do not install a connection from it;
        // reclaim via the recorded slot and let the source retry later.
        const PendingSetup p = it->second;
        pending_.erase(it);
        pending_dsts_.erase(p.dst);
        send_teardown(p.dst, p.slot, pkt->payload, now);
        break;
      }
      Connection& conn = connections_[it->second.dst];
      conn.slots.push_back(it->second.slot);
      conn.setup_ids.push_back(pkt->payload);
      conn.duration = pkt->duration;
      conn.last_used = now;
      pending_dsts_.erase(it->second.dst);
      pending_.erase(it);
      ctrl_->record_setup_success();
      break;
    }
    case MsgType::AckFailure: {
      const auto it = pending_.find(pkt->payload);
      if (it == pending_.end()) break;
      const PendingSetup p = it->second;
      pending_.erase(it);
      pending_dsts_.erase(p.dst);
      ++counts_[NiCounter::SetupFailures];
      ctrl_->record_setup_failure();
      // Destroy the partially reserved prefix (Section II-B), stopping at
      // the router where the setup failed (the failure ack's source).
      send_teardown(p.dst, p.slot, pkt->payload, now, pkt->src);
      // ...and re-send with a different slot id, or back off.
      if (p.retries < cfg_.max_setup_retries && !frozen_ && ctrl_->cs_allowed()) {
        if (cfg_.setup_backoff_base_cycles > 0) {
          // Capped exponential backoff with seeded jitter before re-probing:
          // immediate retries can livelock two NIs into endlessly re-picking
          // slots the other just claimed. The destination stays blocked in
          // pending_dsts_ so no competing setup starts meanwhile.
          Cycle wait = std::min<Cycle>(
              cfg_.setup_backoff_base_cycles
                  << std::min(p.retries, 20),
              cfg_.setup_backoff_cap_cycles);
          wait += rng_.uniform_int(wait / 4 + 1);
          pending_dsts_.insert(p.dst);
          deferred_setups_.emplace(
              now + wait, DeferredSetup{p.dst, p.retries + 1, p.slot});
        } else {
          send_setup(p.dst, p.retries + 1, now, /*avoid_slot=*/p.slot);
        }
      } else {
        ++counts_[NiCounter::SetupGiveUps];
        cooldown_until_[p.dst] = give_up_cooldown(cfg_, now);
      }
      break;
    }
    case MsgType::Teardown:
      break;  // path ending at this node was destroyed; nothing to track
    case MsgType::Data:
      HN_CHECK_MSG(false, "data packet in config handler");
  }
}

void HybridNi::handle_delivery(const PacketPtr& pkt, Cycle now) {
  if (pkt->final_dst != id_) {
    // Vicinity hop-off (Section III-A2): continue packet-switched.
    ++counts_[NiCounter::VicinityHopoffs];
    reinject_packet_switched(*pkt, now);
    return;
  }
  deliver(pkt, now);
}

void HybridNi::on_eject_flit(const Flit& flit, Cycle now) {
  (void)now;
  if (flit.switching == Switching::Circuit) ctrl_->cs_flit_retired();
}

// ---------------------------------------------------------------------------
// Circuit liveness (end-to-end recovery feedback)
// ---------------------------------------------------------------------------

void HybridNi::on_e2e_retx(const PacketPtr& clone, Cycle now) {
  const auto it = connections_.find(clone->final_dst);
  if (it == connections_.end() || it->second.doomed) return;
  if (++it->second.fail_streak < cfg_.cs_fail_threshold) return;
  // Liveness verdict: this many consecutive unacknowledged transmissions
  // toward a connected destination means the circuit's path (or the ack's
  // way back) crosses a failed link. Tear the path down and rebuild it over
  // a fault-aware route — but only once every already-planned circuit flit
  // has launched, or the injection-slot bookkeeping would see flits for a
  // reservation the teardown already released.
  it->second.doomed = true;
  ++counts_[NiCounter::CsFaultTeardowns];
  Cycle last = now;
  for (const auto& [cyc, f] : cs_plan_) {
    if (f.pkt->dst == clone->final_dst && cyc > last) last = cyc;
  }
  fault_teardowns_.emplace(last + 1, clone->final_dst);
}

void HybridNi::on_e2e_acked(NodeId dst, Cycle now) {
  (void)now;
  const auto it = connections_.find(dst);
  if (it != connections_.end()) it->second.fail_streak = 0;
}

void HybridNi::on_packet_squashed(const PacketPtr& pkt, Cycle now) {
  (void)now;
  // A config message that assembled CRC-dirty is squashed before
  // handle_config could run; retire it with the controller so the
  // config-in-flight ledger does not leak.
  if (pkt->is_config()) ctrl_->config_retired();
}

void HybridNi::execute_fault_teardown(NodeId dst, Cycle now) {
  const auto it = connections_.find(dst);
  if (it == connections_.end()) return;  // retired by other means meanwhile
  // Re-defer while circuit flits toward dst are still planned (a new plan
  // cannot appear — the connection is doomed — but one scheduled just
  // before the verdict may stretch past the originally computed cycle).
  Cycle last = 0;
  for (const auto& [cyc, f] : cs_plan_) {
    if (f.pkt->dst == dst && cyc > last) last = cyc;
  }
  if (last >= now) {
    fault_teardowns_.emplace(last + 1, dst);
    return;
  }
  const Connection conn = it->second;
  connections_.erase(it);
  for (size_t i = 0; i < conn.slots.size(); ++i) {
    send_teardown(dst, conn.slots[i], conn.setup_ids[i], now);
  }
  // The teardown travels packet-switched over the fault-aware route; hops
  // beyond a dead link never see it and their entries fall to the
  // reservation-lease sweep. Clear any cooldown and request a fresh path
  // immediately — route_adaptive now excludes the failed link, so the new
  // setup walks a healthy route.
  cooldown_until_.erase(dst);
  maybe_initiate_setup(dst, now, /*force=*/true);
}

// ---------------------------------------------------------------------------
// Hooks from the co-located router
// ---------------------------------------------------------------------------

void HybridNi::on_setup_pass(NodeId dest, int slot, int duration, Port in,
                             Port out, Cycle now) {
  // The setup already passed the router's generation fence, so the current
  // generation is the one its reservations were made under.
  dlt_.observe(dest, slot, duration, in, out, now, ctrl_->table_generation());
}

void HybridNi::on_teardown_pass(int slot, Port in, Cycle now) {
  (void)now;
  dlt_.invalidate_route(slot, in);
}

void HybridNi::on_circuit_use(int slot, Port in, Cycle now) {
  (void)now;
  dlt_.activate_route(slot, in);
}

void HybridNi::on_hitchhike_bounce(Packet* pkt, Cycle now) {
  bounce_packet(pkt, pkt->dst, now);
}

void HybridNi::collect_in_flight(std::vector<Packet*>& out) const {
  NetworkInterface::collect_in_flight(out);
  for (const auto& [cyc, f] : cs_plan_) {
    if (f.pkt) out.push_back(f.pkt);
  }
}

// ---------------------------------------------------------------------------

void HybridNi::epoch_tick(Cycle now) {
  if (!epoch_boundary(cfg_, epoch_start_, now)) return;
  freq_.clear();
  expire_pending(now);
  idle_connections(cfg_, connections_, now, idle_scratch_);
  for (const NodeId dst : idle_scratch_)
    retire_connection(connections_.find(dst), now);
}

void HybridNi::retire_connection(ConnectionMap::iterator it, Cycle now) {
  for (size_t i = 0; i < it->second.slots.size(); ++i)
    send_teardown(it->first, it->second.slots[i], it->second.setup_ids[i], now);
  connections_.erase(it);
}

void HybridNi::leakage_tick(Cycle now) {
  (void)now;
  if (cfg_.hitchhiker_sharing || cfg_.vicinity_sharing) {
    ++energy_.dlt_active_cycles;
    // dlt_accesses is refreshed from the DLT at query time (finalize_energy)
    // so sleeping through cycles cannot leave it stale.
  }
}

void HybridNi::accumulate_idle_energy(EnergyCounters& e,
                                      std::uint64_t ncycles) const {
  if (cfg_.hitchhiker_sharing || cfg_.vicinity_sharing)
    e.dlt_active_cycles += ncycles;
}

void HybridNi::finalize_energy(EnergyCounters& e) const {
  if (cfg_.hitchhiker_sharing || cfg_.vicinity_sharing)
    e.dlt_accesses = dlt_.accesses();
}

void HybridNi::align_epochs(Cycle now) {
  // Boundaries skipped while asleep were no-ops: the NI only sleeps across
  // one when freq_, pending_ and connections_ are all empty (see
  // sched_next_event), and an empty epoch_tick only advances epoch_start_.
  // The `now - 1` leaves a boundary landing exactly on the wake cycle for
  // this tick's epoch_tick to fire.
  const auto period = static_cast<Cycle>(cfg_.policy_epoch_cycles);
  if (now > epoch_start_)
    epoch_start_ += period * ((now - 1 - epoch_start_) / period);
}

Cycle HybridNi::sched_next_event(Cycle now) const {
  Cycle next = NetworkInterface::sched_next_event(now);
  // Slot-timed circuit injections and delayed (fault-injected) config
  // releases happen at exact cycles; waking late would trip the
  // missed-injection-slot check and diverge from the full sweep.
  if (!cs_plan_.empty()) next = std::min(next, cs_plan_.begin()->first);
  if (!delayed_config_.empty())
    next = std::min(next, delayed_config_.begin()->first);
  // Deferred fault teardowns and backed-off setup retries fire in
  // circuit_inject; their timers must wake the NI exactly on the dot so the
  // recovery sequence is identical under fast_forward.
  if (!fault_teardowns_.empty())
    next = std::min(next, std::max(fault_teardowns_.begin()->first, now + 1));
  if (!deferred_setups_.empty())
    next = std::min(next, std::max(deferred_setups_.begin()->first, now + 1));
  // Policy-epoch boundaries matter whenever they would do more than advance
  // epoch_start_: fold frequency counts, time out pending setups, or retire
  // idle connections.
  if (!freq_.empty() || !pending_.empty() || !connections_.empty()) {
    const auto period = static_cast<Cycle>(cfg_.policy_epoch_cycles);
    next = std::min(next,
                    epoch_start_ + period * ((now - epoch_start_) / period + 1));
  }
  return next;
}

void HybridNi::save_state(StateWriter& w) const {
  NetworkInterface::save_state(w);
  HN_CHECK_MSG(cs_plan_.empty() && delayed_config_.empty() &&
                   fault_teardowns_.empty() && deferred_setups_.empty(),
               "hybrid-NI checkpoint requires drained circuit plans");
  w.section("hybrid_ni");
  w.u64(connections_.size());
  for (const auto& [dst, conn] : connections_) {
    w.i32(dst);
    w.u64(conn.slots.size());
    for (const int s : conn.slots) w.i32(s);
    for (const PacketId id : conn.setup_ids) w.u64(id);
    w.i32(conn.duration);
    w.u64(conn.last_used);
    w.u8(conn.vicinity_fail);
    w.i32(conn.fail_streak);
    w.b(conn.doomed);
  }
  w.u64(pending_.size());
  for (const auto& [key, p] : pending_) {
    w.u64(key);
    w.i32(p.dst);
    w.i32(p.slot);
    w.i32(p.retries);
    w.u64(p.sent_at);
  }
  w.u64(pending_dsts_.size());
  for (const NodeId d : pending_dsts_) w.i32(d);
  // freq_/cooldown_until_ are lookup-only (never iterated), but their
  // archive bytes must still be layout-independent: sort before writing.
  std::vector<std::pair<NodeId, int>> freq(freq_.begin(), freq_.end());
  std::sort(freq.begin(), freq.end());
  w.u64(freq.size());
  for (const auto& [d, n] : freq) {
    w.i32(d);
    w.i32(n);
  }
  std::vector<std::pair<NodeId, Cycle>> cooldown(cooldown_until_.begin(),
                                                 cooldown_until_.end());
  std::sort(cooldown.begin(), cooldown.end());
  w.u64(cooldown.size());
  for (const auto& [d, c] : cooldown) {
    w.i32(d);
    w.u64(c);
  }
  dlt_.save_state(w);
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.b(frozen_);
  w.u64(epoch_start_);
}

void HybridNi::restore_state(StateReader& r) {
  NetworkInterface::restore_state(r);
  r.section("hybrid_ni");
  connections_.clear();
  const std::uint64_t nconn = r.u64();
  for (std::uint64_t i = 0; i < nconn; ++i) {
    const NodeId dst = r.i32();
    if (!mesh_.valid(dst)) throw StateError("connection destination invalid");
    Connection conn;
    const std::uint64_t nslots = r.u64();
    if (nslots > static_cast<std::uint64_t>(cfg_.max_windows_per_pair)) {
      throw StateError("connection window count out of range");
    }
    conn.slots.resize(static_cast<size_t>(nslots));
    conn.setup_ids.resize(static_cast<size_t>(nslots));
    for (int& s : conn.slots) s = r.i32();
    for (PacketId& id : conn.setup_ids) id = r.u64();
    conn.duration = r.i32();
    conn.last_used = r.u64();
    conn.vicinity_fail = r.u8();
    conn.fail_streak = r.i32();
    conn.doomed = r.b();
    connections_.emplace(dst, std::move(conn));
  }
  pending_.clear();
  const std::uint64_t npend = r.u64();
  for (std::uint64_t i = 0; i < npend; ++i) {
    const std::uint64_t key = r.u64();
    PendingSetup p;
    p.dst = r.i32();
    p.slot = r.i32();
    p.retries = r.i32();
    p.sent_at = r.u64();
    pending_.emplace(key, p);
  }
  pending_dsts_.clear();
  const std::uint64_t ndsts = r.u64();
  for (std::uint64_t i = 0; i < ndsts; ++i) pending_dsts_.insert(r.i32());
  freq_.clear();
  const std::uint64_t nfreq = r.u64();
  for (std::uint64_t i = 0; i < nfreq; ++i) {
    const NodeId d = r.i32();
    freq_[d] = r.i32();
  }
  cooldown_until_.clear();
  const std::uint64_t ncool = r.u64();
  for (std::uint64_t i = 0; i < ncool; ++i) {
    const NodeId d = r.i32();
    cooldown_until_[d] = r.u64();
  }
  dlt_.restore_state(r);
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& s : rng_state) s = r.u64();
  if (!(rng_state[0] | rng_state[1] | rng_state[2] | rng_state[3])) {
    throw StateError("all-zero hybrid-NI rng state");
  }
  rng_.set_state(rng_state);
  frozen_ = r.b();
  epoch_start_ = r.u64();
}

}  // namespace hybridnoc
