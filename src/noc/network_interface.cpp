#include "noc/network_interface.hpp"

#include <algorithm>

#include "common/pool.hpp"
#include "common/state_io.hpp"
#include "noc/fault_model.hpp"
#include "tdm/switching_policy.hpp"

namespace hybridnoc {

NetworkInterface::NetworkInterface(const NocConfig& cfg, NodeId id, const Mesh& mesh)
    : cfg_(cfg), id_(id), mesh_(mesh), eject_active_vcs_(cfg.num_vcs),
      e2e_rng_(cfg.fault_seed * 0x9e3779b97f4a7c15ULL +
               static_cast<std::uint64_t>(id) + 0x5151) {
  out_vcs_.resize(static_cast<size_t>(cfg_.num_vcs));
  for (auto& v : out_vcs_) v.credits = cfg_.vc_buffer_depth;
}

void NetworkInterface::connect(FlitChannel* inject, CreditWire* inject_credits_in,
                               FlitChannel* eject, CreditWire* eject_credits_out,
                               Router* router) {
  inject_ = inject;
  inject_credits_in_ = inject_credits_in;
  eject_ = eject;
  eject_credits_out_ = eject_credits_out;
  router_ = router;
  if (inject_credits_in_) inject_credits_in_->set_pending_mask(&pending_, kCreditPending);
  if (eject_) eject_->set_pending_mask(&pending_, kEjectPending);
}

void NetworkInterface::send(PacketPtr pkt, Cycle now) {
  HN_CHECK(pkt && mesh_.valid(pkt->dst) && pkt->src == id_);
  pkt->created = (pkt->created == 0) ? now : pkt->created;
  if (pkt->final_dst == kInvalidNode) pkt->final_dst = pkt->dst;
  if (!e2e_admit(pkt, now)) return;
  queue_.push_back(std::move(pkt));
  sched_wake(now);  // new work: make sure this NI ticks at `now`
}

void NetworkInterface::send_priority(PacketPtr pkt, Cycle now) {
  HN_CHECK(pkt && mesh_.valid(pkt->dst));
  if (pkt->final_dst == kInvalidNode) pkt->final_dst = pkt->dst;
  queue_.push_front(std::move(pkt));
  sched_wake(now);
}

bool NetworkInterface::idle() const {
  // Outstanding unacked packets keep the NI non-quiescent: a drain must wait
  // for every ack, retransmission or give-up to resolve.
  if (!queue_.empty() || !assembly_.empty() || !outstanding_.empty()) {
    return false;
  }
  for (const auto& v : out_vcs_)
    if (v.pkt) return false;
  return true;
}

bool NetworkInterface::holds_vc_allocation(Port out_port, int vc) const {
  HN_CHECK(out_port == Port::Local);
  return out_vcs_[static_cast<size_t>(vc)].busy;
}

void NetworkInterface::collect_in_flight(std::vector<Packet*>& out) const {
  for (const auto& [id, partial] : assembly_)
    if (partial.pkt) out.push_back(partial.pkt);
}

void NetworkInterface::tick(Cycle now) {
  if (now > accounted_until_) {
    accumulate_idle_energy(energy_, now - accounted_until_);
    align_epochs(now);
  }
  accounted_until_ = now + 1;
  receive_credits(now);
  eject_tick(now);
  // Retransmission timers run after ejection so an ack arriving this cycle
  // cancels a retransmit due this cycle, and before injection so a fresh
  // retransmit can still leave this cycle.
  if (cfg_.e2e_recovery) e2e_tick(now);
  inject_tick(now);
  // NI energy counters carry event counts and CS-hardware activity only;
  // `cycles` stays zero so per-cycle router costs (clock, crossbar leakage)
  // are not double-counted when NI counters merge into the network total.
  leakage_tick(now);
}

void NetworkInterface::receive_credits(Cycle now) {
  if (!(pending_ & kCreditPending)) return;
  while (auto c = inject_credits_in_->receive(now)) {
    auto& v = out_vcs_[static_cast<size_t>(c->vc)];
    ++v.credits;
    HN_CHECK_MSG(v.credits <= cfg_.vc_buffer_depth, "NI credit overflow");
    if (v.tail_sent && v.credits == cfg_.vc_buffer_depth) {
      v.busy = false;
      v.tail_sent = false;
    }
  }
}

void NetworkInterface::eject_tick(Cycle now) {
  if (!(pending_ & kEjectPending)) return;
  while (auto f = eject_->receive(now)) {
    on_eject_flit(*f, now);
    // Circuit-switched flits bypass buffers and flow control; only
    // packet-switched flits occupied an ejection-buffer slot.
    if (f->switching == Switching::Packet && eject_credits_out_) {
      eject_credits_out_->send({f->vc}, now);
    }
    Packet* pkt = f->pkt;
    HN_CHECK(pkt != nullptr);
    // End-of-path CRC: one dirty flit poisons the whole packet.
    if (f->corrupted) poisoned_.insert(pkt->id);
    // Terminal consumption: `whole` holds the packet's flight anchor iff
    // this flit completed it (every flit of a delivered packet ejects here,
    // so the tail's consumption and assembly completion coincide).
    PacketPtr whole = consume_flit(pkt);
    if (pkt->num_flits > 1) {
      Assembly& partial = assembly_[pkt->id];
      partial.pkt = pkt;
      if (++partial.got < pkt->num_flits) {
        HN_CHECK_MSG(whole == nullptr, "flight anchor released mid-assembly");
        continue;
      }
      assembly_.erase(pkt->id);
    }
    HN_CHECK_MSG(whole != nullptr, "assembled packet's anchor held elsewhere");
    if (poisoned_.erase(pkt->id) > 0) {
      // Squash instead of delivering garbage; the origin's retransmission
      // timer (or, for config, the protocol's own timeouts) recovers.
      ++counts_[NiCounter::CrcSquashedPackets];
      on_packet_squashed(whole, now);
      continue;
    }
    if (pkt->is_config()) {
      handle_config(whole, now);
    } else {
      handle_delivery(whole, now);
    }
  }
}

void NetworkInterface::handle_config(const PacketPtr& pkt, Cycle now) {
  (void)pkt;
  (void)now;
  HN_CHECK_MSG(false, "config packet delivered to a packet-switched-only NI");
}

void NetworkInterface::handle_delivery(const PacketPtr& pkt, Cycle now) {
  deliver(pkt, now);
}

void NetworkInterface::deliver(const PacketPtr& pkt, Cycle now) {
  if (cfg_.e2e_recovery && pkt->e2e_ack) {
    // End-to-end ack: retire the outstanding entry; not a workload delivery.
    e2e_acked(static_cast<PacketId>(pkt->payload), now);
    return;
  }
  if (cfg_.e2e_recovery && !pkt->is_config() && pkt->origin != kInvalidNode) {
    const PacketId key = pkt->retx_of != 0 ? pkt->retx_of : pkt->id;
    const bool first = e2e_seen_.insert(key).second;
    send_e2e_ack(pkt, key, now);
    if (!first) {
      // A retransmission raced the ack; exactly-once delivery upstream.
      ++counts_[NiCounter::E2eDuplicatesDropped];
      return;
    }
  }
  ++counts_[NiCounter::DataPacketsDelivered];
  if (deliver_ == nullptr || !*deliver_) return;
  if (stage_deliveries_) {
    staged_deliveries_.emplace_back(pkt, now);
    return;
  }
  (*deliver_)(pkt, now);
}

void NetworkInterface::send_e2e_ack(const PacketPtr& pkt, PacketId key, Cycle now) {
  if (pkt->origin == id_) {  // self-send: ack short-circuits
    e2e_acked(key, now);
    return;
  }
  // Ack coalescing: at most one queued ack per end-to-end key. Under a
  // retransmission burst every duplicate copy would otherwise enqueue its
  // own ack, and acks drain one small packet at a time — the destination's
  // queue grows without bound and the inflated round trip feeds further
  // retransmissions. A duplicate arriving after the previous ack launched
  // still acks (that ack may have been corrupted en route).
  if (!acks_pending_.insert(key).second) return;
  auto ack = make_packet();
  ack->id = fresh_packet_id();
  ack->src = id_;
  ack->dst = pkt->origin;
  ack->type = MsgType::Data;  // plain 1-flit data so controller config
                              // accounting never sees it
  ack->traffic_class = TrafficClass::Config;
  ack->num_flits = 1;
  ack->payload = key;
  ack->e2e_ack = true;
  ack->cs_eligible = false;   // not worth a circuit
  ack->reinjected = true;     // not new workload
  ++counts_[NiCounter::E2eAcksSent];
  send(std::move(ack), now);
}

void NetworkInterface::e2e_acked(PacketId key, Cycle now) {
  auto it = outstanding_.find(key);
  if (it == outstanding_.end()) return;  // duplicate ack
  const NodeId dst = it->second.pkt->final_dst;
  outstanding_.erase(it);
  on_e2e_acked(dst, now);
}

bool NetworkInterface::e2e_admit(const PacketPtr& pkt, Cycle now) {
  if (pkt->is_config()) return true;
  if (faults_ && faults_->any_failed(now)) {
    const NodeId target = pkt->final_dst != kInvalidNode ? pkt->final_dst : pkt->dst;
    if (!faults_->reachable(id_, target, now)) {
      // Destination partitioned off: fail cleanly instead of letting the
      // packet wander the fabric forever.
      ++counts_[NiCounter::UnreachableFailed];
      return false;
    }
  }
  if (cfg_.e2e_recovery) e2e_track(pkt);
  return true;
}

void NetworkInterface::e2e_track(const PacketPtr& pkt) {
  // Only first transmissions of workload data are tracked: acks and
  // retransmission clones resolve against the original entry, and reinjected
  // copies (vicinity hop-off, hitchhiker bounce) are already tracked at
  // their origin.
  if (pkt->e2e_ack || pkt->retx_of != 0 || pkt->reinjected) return;
  if (pkt->origin == kInvalidNode) pkt->origin = id_;
  auto [it, fresh] = outstanding_.try_emplace(pkt->id);
  if (!fresh) return;
  it->second.pkt = pkt;
  it->second.backoff = cfg_.retx_timeout_cycles;
  // The timer stays dormant until a copy actually enters the fabric
  // (e2e_launched): a packet waiting in its own source queue has not been
  // transmitted yet, and timing it out there would inject clones behind it
  // into the same queue — a self-amplifying storm under burst congestion.
  it->second.next_retx = kCycleNever;
}

void NetworkInterface::e2e_launched(const PacketPtr& pkt, Cycle now) {
  if (!cfg_.e2e_recovery || pkt->e2e_ack || pkt->is_config()) return;
  if (pkt->origin != id_) return;  // forwarded copy; its origin keeps time
  const auto it =
      outstanding_.find(pkt->retx_of != 0 ? pkt->retx_of : pkt->id);
  if (it == outstanding_.end()) return;
  Outstanding& o = it->second;
  // Arm (or re-arm) from the moment of transmission, with seeded jitter so
  // sources whose copies launched the same cycle don't retry in lockstep.
  o.next_retx = now + o.backoff + e2e_rng_.uniform_int(o.backoff / 4 + 1);
}

void NetworkInterface::e2e_tick(Cycle now) {
  if (outstanding_.empty()) return;
  // Collect due entries and process in id order so behaviour never depends
  // on hash-map iteration order.
  std::vector<PacketId>& due = e2e_due_;
  due.clear();
  for (const auto& [key, o] : outstanding_) {
    if (now >= o.next_retx) due.push_back(key);
  }
  if (due.empty()) return;
  std::sort(due.begin(), due.end());
  for (PacketId key : due) {
    Outstanding& o = outstanding_.at(key);
    const NodeId dst = o.pkt->final_dst;
    if (faults_ && !faults_->reachable(id_, dst, now)) {
      ++counts_[NiCounter::UnreachableFailed];
      outstanding_.erase(key);
      continue;
    }
    if (o.attempts >= cfg_.max_retx_attempts) {
      ++counts_[NiCounter::RetxGiveUps];
      outstanding_.erase(key);
      continue;
    }
    ++o.attempts;
    ++counts_[NiCounter::Retransmits];
    auto clone = make_packet(*o.pkt);
    clone->id = fresh_packet_id();
    clone->retx_of = key;
    clone->src = id_;
    clone->dst = dst;  // route straight to the true destination, whatever
                       // sharing rewrote on the original
    clone->final_dst = dst;
    clone->switching = Switching::Packet;
    // The first transmission just failed to produce an ack — do not hand the
    // retry back to the circuit layer, whose shared rides (vicinity,
    // hitchhiking) can cross the same failed link without ever accruing a
    // liveness streak on a connection this NI could doom. Packet switching
    // detours around failed links, so a reachable destination is always
    // eventually reached.
    clone->cs_eligible = false;
    clone->created = now;
    clone->injected = 0;
    clone->reinjected = true;  // not new workload
    clone->stall_flagged = false;
    clone->share_in_port = -1;
    clone->share_out_port = -1;
    // Capped exponential backoff: doubling spreads repeated collisions out.
    // The timer goes dormant until the clone's head flit launches
    // (e2e_launched) — a clone stuck behind a long source queue must not
    // itself time out and spawn further clones.
    o.backoff = std::min(o.backoff * 2, cfg_.retx_backoff_cap_cycles);
    o.next_retx = kCycleNever;
    on_e2e_retx(clone, now);
    send(std::move(clone), now);
  }
}

int NetworkInterface::watchdog_scan(Cycle now, Cycle max_age) {
  int flagged = 0;
  auto check = [&](const PacketPtr& p) {
    if (p && !p->is_config() && !p->stall_flagged && now >= p->created &&
        now - p->created >= max_age) {
      p->stall_flagged = true;
      ++flagged;
    }
  };
  for (const auto& p : queue_) check(p);
  for (const auto& v : out_vcs_) check(v.pkt);
  for (const auto& [key, o] : outstanding_) check(o.pkt);
  counts_[NiCounter::WatchdogFlagged] += static_cast<std::uint64_t>(flagged);
  return flagged;
}

void NetworkInterface::inject_tick(Cycle now) {
  if (!inject_) return;
  // Slot-timed circuit-switched flits own the injection channel on their
  // scheduled cycles; packet-switched traffic fills the remaining cycles.
  if (circuit_inject(now)) return;

  // Start a new packet on a free VC if one is available.
  if (!queue_.empty()) try_start_packet(now);

  // Round-robin over VCs with an in-flight packet; send one flit.
  const int n = cfg_.num_vcs;
  for (int i = 0; i < n; ++i) {
    const int v = (inject_rr_ + i) % n;
    auto& vc = out_vcs_[static_cast<size_t>(v)];
    if (!vc.busy || !vc.pkt || vc.credits <= 0) continue;
    const PacketPtr& pkt = vc.pkt;
    Flit f;
    f.pkt = pkt.get();
    f.seq = vc.next_seq;
    f.vc = static_cast<std::int8_t>(v);
    f.switching = Switching::Packet;
    if (pkt->num_flits == 1) {
      f.type = FlitType::HeadTail;
    } else if (vc.next_seq == 0) {
      f.type = FlitType::Head;
    } else if (vc.next_seq == pkt->num_flits - 1) {
      f.type = FlitType::Tail;
    } else {
      f.type = FlitType::Body;
    }
    if (vc.next_seq == 0) {
      // Head flit: anchor the packet for its whole flight. This is the one
      // refcount operation of the packet-switched path; every flit below
      // carries the raw pointer.
      begin_flight(pkt);
      pkt->injected = now;
      if (cfg_.e2e_recovery) e2e_launched(pkt, now);
      if (pkt->e2e_ack) acks_pending_.erase(static_cast<PacketId>(pkt->payload));
      if (!pkt->is_config() && now >= pkt->created) {
        smooth_inject_delay(ewma_inject_delay_, now - pkt->created);
      }
    }
    ++vc.next_seq;
    --vc.credits;
    if (pkt->is_config()) {
      ++counts_[NiCounter::ConfigFlits];
    } else {
      ++counts_[NiCounter::PsDataFlits];
      ++flits_by_class_[static_cast<size_t>(pkt->traffic_class)];
    }
    if (f.is_tail()) {
      vc.tail_sent = true;
      vc.pkt.reset();
      vc.next_seq = 0;
    }
    inject_->send(std::move(f), now);
    inject_rr_ = (v + 1) % n;
    return;
  }
}

bool NetworkInterface::sched_busy() const {
  // Anything queued or mid-injection needs a tick every cycle. The ejection
  // side is purely reactive: assembly only advances on channel arrivals,
  // which carry their own wakes.
  if (!queue_.empty()) return true;
  for (const auto& v : out_vcs_)
    if (v.pkt) return true;
  return false;
}

Cycle NetworkInterface::sched_next_event(Cycle now) const {
  Cycle next = kCycleNever;
  if (inject_credits_in_) next = std::min(next, inject_credits_in_->next_ready());
  if (eject_) next = std::min(next, eject_->next_ready());
  // Retransmission timers must fire on time even while the NI is otherwise
  // asleep, or recovery under fast_forward diverges from the full sweep.
  for (const auto& [key, o] : outstanding_) {
    next = std::min(next, std::max(o.next_retx, now + 1));
  }
  return next;
}

EnergyCounters NetworkInterface::settled_energy(Cycle now) const {
  EnergyCounters e = energy_;
  if (now > accounted_until_) accumulate_idle_energy(e, now - accounted_until_);
  finalize_energy(e);
  return e;
}

void NetworkInterface::settle_energy(Cycle through) {
  if (through + 1 > accounted_until_) {
    accumulate_idle_energy(energy_, through + 1 - accounted_until_);
    accounted_until_ = through + 1;
  }
}

bool NetworkInterface::try_start_packet(Cycle now) {
  (void)now;
  const int router_active = router_ ? router_->announced_active_vcs() : cfg_.num_vcs;
  for (int v = 0; v < router_active; ++v) {
    auto& vc = out_vcs_[static_cast<size_t>(v)];
    if (vc.busy || vc.tail_sent || vc.credits != cfg_.vc_buffer_depth) continue;
    vc.busy = true;
    vc.pkt = queue_.pop_front();
    vc.next_seq = 0;
    if (!vc.pkt->is_config() && !vc.pkt->reinjected) {
      ++counts_[NiCounter::DataPacketsSent];
    }
    return true;
  }
  return false;
}

template <typename Ar, typename Self>
void NetworkInterface::layout(Ar& ar, Self& self) {
  ar.section("ni");
  ar.expect(static_cast<std::uint32_t>(self.out_vcs_.size()),
            "NI VC count mismatch");
  for (auto& v : self.out_vcs_) {
    ar.fields(v.busy, v.tail_sent, v.credits, v.next_seq);
  }
  ar.fields(self.inject_rr_, self.accounted_until_, self.energy_,
            self.flits_by_class_, self.counts_.n, self.eject_active_vcs_,
            self.local_ids_, self.ewma_inject_delay_);
  // Destination-side dedup keys, sorted so the archive bytes (and thus the
  // checkpoint digest) do not depend on hash-table layout.
  ar.set(self.e2e_seen_);
  ar.field(self.e2e_rng_);
}

void NetworkInterface::save_state(StateWriter& w) const {
  HN_CHECK_MSG(idle(), "NI checkpoint requires an idle NI");
  HN_CHECK_MSG(poisoned_.empty() && acks_pending_.empty() &&
                   staged_deliveries_.empty(),
               "NI checkpoint requires drained recovery state");
  layout(w, *this);
}

void NetworkInterface::restore_state(StateReader& r) { layout(r, *this); }

}  // namespace hybridnoc
