#include "tdm/hybrid_router.hpp"

#include <algorithm>

#include "common/state_io.hpp"

namespace hybridnoc {

HybridRouter::HybridRouter(const NocConfig& cfg, NodeId id, const Mesh& mesh,
                           TdmController* ctrl)
    : Router(cfg, id, mesh),
      slots_(cfg.slot_table_size,
             ctrl ? ctrl->active_slots() : cfg.slot_table_size,
             cfg.reservation_lease_cycles > 0),
      ctrl_(ctrl) {
  HN_CHECK(ctrl_ != nullptr);
}

const Flit* HybridRouter::peek_arrival(Port port, Cycle cycle) const {
  const auto& ip = in_[static_cast<size_t>(port)];
  if (!ip.data) return nullptr;
  return ip.data->peek_arrival(cycle);
}

bool HybridRouter::cs_arrival_expected(Port port, Cycle cycle) const {
  // No circuit flit queued on the port: the advance signal is low without
  // looking at the channel.
  if (!may_hold_circuit(port)) return false;
  const Flit* f = peek_arrival(port, cycle);
  return f != nullptr && f->switching == Switching::Circuit;
}

std::optional<Port> HybridRouter::local_cs_target(Cycle cycle) const {
  if (!may_hold_circuit(Port::Local)) return std::nullopt;
  const Flit* f = peek_arrival(Port::Local, cycle);
  if (!f || f->switching != Switching::Circuit) return std::nullopt;
  if (f->pkt->is_hitchhiker()) return static_cast<Port>(f->pkt->share_out_port);
  return slots_.lookup(cycle, Port::Local);
}

std::optional<Port> HybridRouter::take_hh_override(Cycle now) {
  for (auto it = hh_overrides_.begin(); it != hh_overrides_.end(); ++it) {
    if (it->first == now) {
      const Port out = it->second;
      hh_overrides_.erase(it);
      return out;
    }
  }
  return std::nullopt;
}

bool HybridRouter::handle_arrival(Flit& flit, Port in, Cycle now) {
  if (flit.switching != Switching::Circuit) return false;
  ++energy_.cs_latch_flits;

  if (in != Port::Local) {
    // Mid-path circuit flit: the slot table has pre-configured the crossbar.
    const auto out = slots_.lookup(now, in);
    HN_CHECK_MSG(out.has_value(),
                 "circuit-switched flit arrived in an unreserved slot");
    if (flit.is_head()) {
      // Heads arrive at the window-start slot; renew the whole window's
      // reservation lease.
      slots_.refresh(slots_.slot_of(now), cfg_.reservation_duration(), in, now);
      if (ni_hooks_ && cfg_.hitchhiker_sharing) {
        // Evidence the circuit completed: provisional DLT entries on this
        // reservation may now be shared.
        ni_hooks_->on_circuit_use(slots_.slot_of(now), in, now);
      }
    }
    cs_now_.push_back({flit, *out});
    return true;
  }

  // Injected by the local NI.
  if (!flit.pkt->is_hitchhiker()) {
    const auto out = slots_.lookup(now, Port::Local);
    HN_CHECK_MSG(out.has_value(), "local circuit flit without a reservation");
    if (flit.is_head()) {
      slots_.refresh(slots_.slot_of(now), cfg_.reservation_duration(),
                     Port::Local, now);
    }
    cs_now_.push_back({flit, *out});
    return true;
  }

  // Hitchhiker hop-on (Section III-A1). Body flits follow the latch set up
  // when their head was accepted; a body flit with no latch belongs to a
  // bounced head and evaporates here.
  if (const auto out = take_hh_override(now)) {
    cs_now_.push_back({flit, *out});
    return true;
  }
  if (!flit.is_head()) {
    ctrl_->cs_flit_retired();
    // Terminal consumption: a stray body evaporates here. It may be the
    // packet's last live flit (head already bounced), so the anchor can
    // drop right now.
    (void)consume_flit(flit.pkt);
    return true;
  }
  const Port sin = static_cast<Port>(flit.pkt->share_in_port);
  const Port sout = static_cast<Port>(flit.pkt->share_out_port);
  const auto entry = slots_.lookup(now, sin);
  const bool path_ok = entry.has_value() && *entry == sout;
  const bool contention = cs_arrival_expected(sin, now);
  if (!path_ok || contention) {
    ctrl_->cs_flit_retired();
    // Bounce first (the NI clones the packet for the packet-switched
    // retry while the head's flight reference keeps it alive), then
    // consume the head — possibly releasing the anchor.
    if (ni_hooks_) ni_hooks_->on_hitchhike_bounce(flit.pkt, now);
    (void)consume_flit(flit.pkt);
    return true;
  }
  slots_.refresh(slots_.slot_of(now), cfg_.reservation_duration(), sin, now);
  for (int d = 1; d < flit.pkt->num_flits; ++d) {
    hh_overrides_.emplace_back(now + static_cast<Cycle>(d), sout);
  }
  cs_now_.push_back({flit, sout});
  return true;
}

bool HybridRouter::st_ok(Port in, Port out, Cycle st_cycle) {
  // (1) An arriving circuit flit owns the input demux line for that cycle.
  if (cs_arrival_expected(in, st_cycle)) return false;
  const bool stealing = cfg_.time_slot_stealing;
  // (2) Reserved input slot: without stealing the line is simply off-limits.
  if (!stealing && slots_.lookup(st_cycle, in).has_value()) return false;
  // (3) Output reserved by some input's slot entry.
  if (const auto j = slots_.output_reserved_at(st_cycle, out)) {
    if (!stealing) return false;
    // Steal only when the advance signal says no circuit flit is coming.
    if (cs_arrival_expected(*j, st_cycle)) return false;
    ++counts_[RouterCounter::PsSteals];
  }
  // (4) A locally injected circuit flit (own circuit or hitchhiker) claims
  // its target output outside the (input-indexed) table check above.
  if (const auto t = local_cs_target(st_cycle)) {
    if (*t == out) return false;
  }
  return true;
}

std::optional<Port> HybridRouter::compute_route(Packet* pkt, Port in,
                                                Cycle now) {
  switch (pkt->type) {
    case MsgType::SetupRequest:
      return process_setup(pkt, in, now);
    case MsgType::Teardown:
      return process_teardown(pkt, in, now);
    case MsgType::Data:
    case MsgType::AckSuccess:
    case MsgType::AckFailure:
      return Router::compute_route(pkt, in, now);
  }
  return std::nullopt;
}

void HybridRouter::on_config_corrupt(Packet* pkt) {
  (void)pkt;
  ++counts_[RouterCounter::CorruptConfigDrops];
  ctrl_->config_retired();
}

std::optional<Port> HybridRouter::process_setup(Packet* pkt, Port in,
                                                Cycle now) {
  if (pkt->table_gen != ctrl_->table_generation()) {
    // The tables this setup was walking were wiped by a dynamic resize while
    // it was in flight; its slot arithmetic no longer means anything, and any
    // prefix it reserved is gone too. Discard instead of reserving garbage.
    ++counts_[RouterCounter::StaleConfigDrops];
    ctrl_->config_retired();
    return std::nullopt;
  }
  const Port out = (pkt->dst == id_) ? Port::Local : route_adaptive(pkt->dst, now);
  const int slot = pkt->slot_id;
  const int dur = pkt->duration;
  HN_CHECK(slot >= 0 && dur >= 1);

  // Starvation guard (Section II-B): no new reservations above the
  // occupancy threshold.
  const bool below_threshold =
      slots_.occupancy() < cfg_.reservation_threshold;
  if (below_threshold &&
      slots_.reserve(slot, dur, in, out, static_cast<PacketId>(pkt->payload),
                     now)) {
    energy_.slot_table_writes += static_cast<std::uint64_t>(dur);
    if (ni_hooks_ && cfg_.hitchhiker_sharing && in != Port::Local &&
        out != Port::Local) {
      ni_hooks_->on_setup_pass(pkt->dst, slot, dur, in, out, now);
    }
    // Two-stage circuit pipeline: the downstream router's slot is two
    // cycles later (Section II-B).
    pkt->slot_id = (slot + 2) & (slots_.active_size() - 1);
    return out;
  }

  // Conflict: convert the setup in place into a failure ack headed back to
  // the source (Section II-B). slot_id keeps the failing router's slot so
  // diagnostics can see where the walk stopped; the source's teardown uses
  // its own recorded starting slot.
  pkt->type = MsgType::AckFailure;
  pkt->dst = pkt->src;
  pkt->src = id_;
  pkt->final_dst = pkt->dst;
  return (pkt->dst == id_) ? Port::Local : route_adaptive(pkt->dst, now);
}

std::optional<Port> HybridRouter::process_teardown(Packet* pkt, Port in,
                                                   Cycle now) {
  if (pkt->table_gen != ctrl_->table_generation()) {
    // Stale teardown: the reservations it would release were already wiped
    // by the resize that bumped the generation.
    ++counts_[RouterCounter::StaleConfigDrops];
    ctrl_->config_retired();
    return std::nullopt;
  }
  if (pkt->teardown_stop == id_) {
    // The setup failed here: the valid entries at this router belong to the
    // conflicting path and must not be touched.
    ctrl_->config_retired();
    return std::nullopt;
  }
  const auto out = slots_.release(pkt->slot_id, pkt->duration, in,
                                  static_cast<PacketId>(pkt->payload));
  if (!out) {
    // Either this is the node where the corresponding setup failed (every
    // slot already invalid, Section II-B), or the entries here belong to a
    // different setup (duplicate/late teardown, owner fence). Evaporate.
    ctrl_->config_retired();
    return std::nullopt;
  }
  energy_.slot_table_writes += static_cast<std::uint64_t>(pkt->duration);
  if (ni_hooks_) ni_hooks_->on_teardown_pass(pkt->slot_id, in, now);
  pkt->slot_id = (pkt->slot_id + 2) & (slots_.active_size() - 1);
  return *out;
}

void HybridRouter::collect_in_flight(std::vector<Packet*>& out) const {
  Router::collect_in_flight(out);
  for (const auto& t : cs_now_) {
    if (t.flit.pkt) out.push_back(t.flit.pkt);
  }
}

void HybridRouter::traverse_circuit(Cycle now) {
  for (auto& t : cs_now_) {
    claim_xbar_output(t.out);
    send_flit(t.out, t.flit, now);
    ++counts_[RouterCounter::CsFlitsTraversed];
  }
  cs_now_.clear();
  HN_CHECK_MSG(hh_overrides_.empty() ||
                   hh_overrides_.front().first >= now,
               "stale hitchhiker latch");
}

void HybridRouter::leakage_tick(Cycle now) {
  // One slot-row lookup per cycle steers the input demultiplexers.
  ++energy_.slot_table_reads;
  energy_.slot_entry_active_cycles +=
      static_cast<std::uint64_t>(slots_.active_size());
  ++energy_.cs_misc_active_cycles;
  // Reservation-lease backstop: reclaim entries whose last traversal is
  // older than the lease — these were orphaned by a lost teardown (a live
  // connection is idle-retired by its source long before the lease runs
  // out). Swept at a coarse cadence; the exact phase is irrelevant.
  const Cycle lease = cfg_.reservation_lease_cycles;
  if (lease > 0 && now > lease && (now & 1023) == 0) {
    const int n =
        slots_.expire_older_than(now - lease, [&](int slot, Port in) {
          if (ni_hooks_) ni_hooks_->on_teardown_pass(slot, in, now);
        });
    if (n > 0) {
      counts_[RouterCounter::ExpiredReservations] += static_cast<std::uint64_t>(n);
      energy_.slot_table_writes += static_cast<std::uint64_t>(n);
    }
  }
}

void HybridRouter::accumulate_idle_energy(EnergyCounters& e,
                                          std::uint64_t ncycles) const {
  Router::accumulate_idle_energy(e, ncycles);
  // What leakage_tick accrues per cycle regardless of traffic. active_size
  // cannot change while asleep: resizes go through the reset hook, which
  // settles every component's energy first.
  e.slot_table_reads += ncycles;
  e.slot_entry_active_cycles +=
      ncycles * static_cast<std::uint64_t>(slots_.active_size());
  e.cs_misc_active_cycles += ncycles;
}

bool HybridRouter::sched_busy() const {
  // hh_overrides_ only ever covers cycles with circuit body flits already in
  // flight toward this router (channel wakes cover those), but keeping the
  // router hot for the whole override window is the cheap, safe choice.
  return Router::sched_busy() || !hh_overrides_.empty();
}

Cycle HybridRouter::sched_next_event(Cycle now) const {
  Cycle next = Router::sched_next_event(now);
  // Lease reclaim runs at every multiple-of-1024 cycle while any reservation
  // exists; whether an entry is actually old enough is the sweep's business.
  // ~32 wakes per default 32k lease — noise next to the sweeps they replace.
  if (cfg_.reservation_lease_cycles > 0 && slots_.valid_entries() > 0)
    next = std::min(next, (now | Cycle{1023}) + 1);
  return next;
}

template <typename Ar, typename Self>
void HybridRouter::layout(Ar& ar, Self& self) {
  ar.section("hybrid_router");
  ar.field(self.slots_);
}

void HybridRouter::save_state(StateWriter& w) const {
  Router::save_state(w);
  HN_CHECK_MSG(cs_now_.empty() && hh_overrides_.empty(),
               "hybrid-router checkpoint requires no in-flight CS traversal");
  layout(w, *this);
}

void HybridRouter::restore_state(StateReader& r) {
  Router::restore_state(r);
  layout(r, *this);
}

}  // namespace hybridnoc
