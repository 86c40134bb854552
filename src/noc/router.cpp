#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "common/state_io.hpp"
#include "noc/fault_model.hpp"
#include "noc/routing.hpp"

namespace hybridnoc {

Router::Router(const NocConfig& cfg, NodeId id, const Mesh& mesh)
    : cfg_(cfg), id_(id), mesh_(mesh), announced_active_vcs_(cfg.num_vcs) {
  HN_CHECK_MSG(cfg_.num_vcs <= 32, "VC-state bitmasks hold at most 32 VCs");
  HN_CHECK_MSG(cfg_.vc_buffer_depth <= NocConfig::kMaxVcBufferDepth,
               "VC buffer depth above NocConfig::kMaxVcBufferDepth");
  const auto nv = static_cast<size_t>(cfg_.num_vcs);
  vc_block_ = std::make_unique_for_overwrite<std::byte[]>(
      kNumPorts * nv * (sizeof(VcState) + sizeof(int)));
  std::byte* at = vc_block_.get();
  for (auto& ip : in_) {
    ip.vcs = reinterpret_cast<VcState*>(at);
    std::uninitialized_default_construct_n(ip.vcs, nv);
    at += nv * sizeof(VcState);
  }
  for (auto& op : out_) {
    op.credits = reinterpret_cast<int*>(at);
    std::uninitialized_fill_n(op.credits, nv, cfg_.vc_buffer_depth);
    at += nv * sizeof(int);
    op.grantable_mask =
        cfg_.num_vcs >= 32 ? ~0u : ((1u << static_cast<unsigned>(cfg_.num_vcs)) - 1u);
  }
}

void Router::connect_input(Port p, FlitChannel* data_in, CreditWire* credit_out,
                           VcHolder* upstream, Port upstream_out) {
  auto& ip = in_[static_cast<size_t>(p)];
  HN_CHECK(ip.data == nullptr);
  ip.data = data_in;
  ip.credit_out = credit_out;
  ip.upstream = upstream;
  ip.upstream_out = upstream_out;
  data_in->set_pending_mask(&pending_, 1u << static_cast<unsigned>(p),
                            1u << (kCircuitPendingShift + static_cast<unsigned>(p)));
  ++ports_present_;
}

void Router::connect_output(Port p, FlitChannel* data_out, CreditWire* credit_in) {
  auto& op = out_[static_cast<size_t>(p)];
  HN_CHECK(op.data == nullptr);
  op.data = data_out;
  op.credit_in = credit_in;
  if (p != Port::Local) ++links_out_;
  credit_in->set_pending_mask(&pending_,
                              1u << (kCreditPendingShift + static_cast<unsigned>(p)));
}

void Router::set_downstream_active_vcs(Port p, const int* active_vcs) {
  out_[static_cast<size_t>(p)].downstream_active_vcs = active_vcs;
}

bool Router::holds_vc_allocation(Port out_port, int vc) const {
  const auto& op = out_[static_cast<size_t>(out_port)];
  return (op.vc_busy >> static_cast<unsigned>(vc)) & 1u;
}

int Router::free_credits(Port out) const {
  const auto& op = out_[static_cast<size_t>(out)];
  const int active = op.downstream_active_vcs ? *op.downstream_active_vcs : cfg_.num_vcs;
  if (op.cached_active != active) {
    // Downstream VC-gating moved the active boundary (or first call):
    // rebuild the prefix sum; afterwards receive/spend keep it incremental.
    int total = 0;
    for (int v = 0; v < active; ++v) total += op.credits[static_cast<size_t>(v)];
    op.cached_free_credits = total;
    op.cached_active = active;
  }
  return op.cached_free_credits;
}

void Router::tick(Cycle now) {
  if (now > accounted_until_) {
    // Slept through [accounted_until_, now): fold the idle-cycle energy
    // constants in closed form and re-anchor the gating epoch.
    accumulate_idle_energy(energy_, now - accounted_until_);
    align_epochs(now);
  }
  accounted_until_ = now + 1;
  receive_credits(now);
  receive_flits(now);
  vc_allocate(now);
  switch_allocate(now);
  switch_traverse(now);
  vc_gating_tick(now);
  accounting_tick(now);
  leakage_tick(now);
}

void Router::receive_credits(Cycle now) {
  // Only credit inputs that hold something, in ascending output order.
  std::uint32_t ready = (pending_ >> kCreditPendingShift) & kPortBits;
  while (ready) {
    auto& op = out_[static_cast<size_t>(std::countr_zero(ready))];
    ready &= ready - 1;
    while (auto c = op.credit_in->receive(now)) {
      const auto v = static_cast<size_t>(c->vc);
      HN_CHECK(v < static_cast<size_t>(cfg_.num_vcs));
      ++op.credits[v];
      if (c->vc < op.cached_active) ++op.cached_free_credits;
      HN_CHECK_MSG(op.credits[v] <= cfg_.vc_buffer_depth, "credit overflow");
      const std::uint32_t bit = 1u << v;
      if ((op.tail_sent & bit) && op.credits[v] == cfg_.vc_buffer_depth) {
        op.vc_busy &= ~bit;
        op.tail_sent &= ~bit;
        op.grantable_mask |= bit;
      }
    }
  }
}

void Router::receive_flits(Cycle now) {
  // Only data inputs that hold something, in ascending port order. A send
  // into one of them during this loop is ready at now + 1 at the earliest,
  // so the snapshot misses nothing receivable now.
  std::uint32_t ready = pending_ & kPortBits;
  while (ready) {
    const int p = std::countr_zero(ready);
    ready &= ready - 1;
    auto& ip = in_[static_cast<size_t>(p)];
    while (auto f = ip.data->receive(now)) {
      // Per-hop CRC: detection only for data (the fail-dirty flit keeps
      // flowing and the destination NI squashes the packet) — but a damaged
      // config message is evaporated right here, with the same buffer and
      // credit accounting as a protocol-consumed flit, before any router
      // can act on its fields.
      if (f->corrupted) {
        ++counts_[RouterCounter::CrcFlaggedFlits];
        if (f->pkt->is_config()) {
          HN_CHECK(f->is_tail());
          ++energy_.buffer_writes;
          ++energy_.buffer_reads;
          if (ip.credit_out) ip.credit_out->send({f->vc}, now);
          // Terminal consumption: config packets are single-flit, so this
          // returns the flight anchor, which keeps the packet alive through
          // the corrupt-config hook and then lets it die.
          PacketPtr gone = consume_flit(f->pkt);
          HN_CHECK_MSG(gone != nullptr, "corrupt config flit was not its packet's last");
          on_config_corrupt(gone.get());
          continue;
        }
      }
      if (handle_arrival(*f, static_cast<Port>(p), now)) continue;
      HN_CHECK_MSG(f->switching == Switching::Packet,
                   "circuit flit reached the packet pipeline");
      const auto v = static_cast<size_t>(f->vc);
      HN_CHECK(v < static_cast<size_t>(cfg_.num_vcs));
      VcState& st = ip.vcs[v];
      ++energy_.buffer_writes;
      if (f->is_head()) {
        HN_CHECK_MSG(st.state == VcState::S::Idle && st.count == 0,
                     "head flit into a busy VC (atomic reallocation violated)");
        const auto route = compute_route(f->pkt, static_cast<Port>(p), now);
        if (!route) {
          // Consumed by the protocol (e.g. a teardown that reached the node
          // where its setup failed). Single-flit packets only; the buffer
          // slot is freed immediately and the flight anchor drops here.
          HN_CHECK(f->is_tail());
          ++energy_.buffer_reads;
          if (ip.credit_out) ip.credit_out->send({f->vc}, now);
          PacketPtr gone = consume_flit(f->pkt);
          HN_CHECK_MSG(gone != nullptr, "protocol-consumed flit was not its packet's last");
          continue;
        }
        st.pkt = f->pkt;
        st.out_port = *route;
        st.out_vc = -1;
        st.state = VcState::S::WaitVc;
        ip.wait_mask |= 1u << v;
        ++busy_vcs_;
        st.va_eligible = now + 1;
      } else {
        HN_CHECK_MSG(st.state != VcState::S::Idle, "body flit into an idle VC");
      }
      HN_CHECK_MSG(st.count < cfg_.vc_buffer_depth,
                   "VC buffer overflow (credit protocol broken)");
      if (!buffers_) buffers_ = std::make_unique<BufferedFlit[]>(buffer_slots());
      vc_window(p, static_cast<unsigned>(v))[vc_slot(st.head, st.count)] = {*f, now};
      ++st.count;
    }
  }
}

void Router::vc_allocate(Cycle now) {
  for (auto& ip : in_) {
    // Only VCs whose head flit is waiting for a downstream VC compete; the
    // mask walk visits them in ascending VC order, exactly like the dense
    // scan it replaces (non-waiting VCs failed its first check anyway).
    std::uint32_t pending = ip.wait_mask;
    while (pending) {
      const auto vi = static_cast<unsigned>(std::countr_zero(pending));
      pending &= pending - 1;
      VcState& st = ip.vcs[vi];
      if (now < st.va_eligible) continue;
      auto& op = out_[static_cast<size_t>(st.out_port)];
      const int active = op.downstream_active_vcs ? *op.downstream_active_vcs
                                                  : cfg_.num_vcs;
      // Conservative atomic reallocation: a downstream VC is granted only
      // when unallocated and with a full credit pile — i.e. a grantable_mask
      // bit below the downstream active-VC boundary. The round-robin scan
      // starts at va_rr % active (what the dense (va_rr + i) % active walk
      // visits first) and wraps to the lowest eligible lane.
      const std::uint32_t lanes =
          active >= 32 ? ~0u : ((1u << static_cast<unsigned>(active)) - 1u);
      const std::uint32_t eligible = op.grantable_mask & lanes;
      if (eligible == 0) continue;
      const int start = op.va_rr % active;
      const std::uint32_t at_or_after = eligible >> static_cast<unsigned>(start);
      const int grant = at_or_after != 0 ? start + std::countr_zero(at_or_after)
                                         : std::countr_zero(eligible);
      op.vc_busy |= 1u << static_cast<unsigned>(grant);
      op.grantable_mask &= ~(1u << static_cast<unsigned>(grant));
      op.va_rr = (grant + 1) % active;
      st.out_vc = static_cast<std::int8_t>(grant);
      st.state = VcState::S::Active;
      ip.wait_mask &= ~(1u << vi);
      ip.active_mask |= 1u << vi;
      st.sa_eligible = now + 1;
      ++energy_.vc_arbs;
    }
  }
}

int Router::pick_sa_candidate(InputPort& ip, Port p, Cycle now) {
  // Round-robin over the *active* VCs only: bits at or above sa_rr in
  // ascending order, then the wrapped-around low bits — the same visit
  // order as the dense (sa_rr + i) % n scan restricted to Active VCs.
  std::uint32_t cur = ip.active_mask;
  if (cur == 0) return -1;
  const std::uint32_t low = cur & ((1u << static_cast<unsigned>(ip.sa_rr)) - 1u);
  cur ^= low;  // bits >= sa_rr
  for (int pass = 0; pass < 2; ++pass, cur = low) {
    while (cur) {
      const auto v = static_cast<unsigned>(std::countr_zero(cur));
      cur &= cur - 1;
      VcState& st = ip.vcs[v];
      if (st.count == 0 || now < st.sa_eligible) continue;
      // Min 1 cycle in the buffer.
      if (vc_window(static_cast<int>(p), v)[st.head].bw_cycle >= now) continue;
      auto& op = out_[static_cast<size_t>(st.out_port)];
      if (op.credits[static_cast<size_t>(st.out_vc)] <= 0) continue;
      if (!st_ok(p, st.out_port, now + 1)) continue;
      return static_cast<int>(v);
    }
  }
  return -1;
}

void Router::switch_allocate(Cycle now) {
  // Separable allocation: one candidate VC per input port, then one input
  // port per output port; both arbiters are round-robin. Each candidate
  // sets its input's bit in the request mask of the output it wants.
  std::array<int, kNumPorts> candidate;
  std::array<std::uint32_t, kNumPorts> requests{};
  std::uint32_t requested = 0;  ///< outputs with at least one request
  for (int p = 0; p < kNumPorts; ++p) {
    auto& ip = in_[static_cast<size_t>(p)];
    if (!ip.active_mask) continue;  // no Active VC, no candidate
    const int c = pick_sa_candidate(ip, static_cast<Port>(p), now);
    if (c < 0) continue;
    candidate[static_cast<size_t>(p)] = c;
    const auto o = static_cast<unsigned>(ip.vcs[static_cast<size_t>(c)].out_port);
    requests[o] |= 1u << static_cast<unsigned>(p);
    requested |= 1u << o;
  }
  // Grants, and so credit sends, go in ascending output order. Each input
  // requests one output, so no input wins twice.
  StRegBank& next = st_regs_[static_cast<size_t>(st_cur_ ^ 1)];
  std::uint32_t& next_valid = st_valid_[static_cast<size_t>(st_cur_ ^ 1)];
  while (requested) {
    const int o = std::countr_zero(requested);
    requested &= requested - 1;
    auto& op = out_[static_cast<size_t>(o)];
    if (!op.data) continue;
    // The first requesting input at or after sa_rr, wrapping round.
    const std::uint32_t req = requests[static_cast<size_t>(o)];
    const std::uint32_t at_or_after = req >> static_cast<unsigned>(op.sa_rr);
    const int winner = at_or_after != 0 ? op.sa_rr + std::countr_zero(at_or_after)
                                        : std::countr_zero(req);
    op.sa_rr = (winner + 1) % kNumPorts;

    auto& ip = in_[static_cast<size_t>(winner)];
    const int v = candidate[static_cast<size_t>(winner)];
    VcState& st = ip.vcs[static_cast<size_t>(v)];
    ip.sa_rr = (v + 1) % cfg_.num_vcs;

    const BufferedFlit& bf = vc_window(winner, static_cast<unsigned>(v))[st.head];
    st.head = static_cast<std::uint16_t>(vc_slot(st.head, 1));
    --st.count;
    residency_sum_ += static_cast<std::uint64_t>(now - bf.bw_cycle);
    ++residency_count_;
    ++energy_.buffer_reads;
    ++energy_.sw_arbs;
    if (ip.credit_out) ip.credit_out->send({bf.flit.vc}, now);

    StReg& reg = next[static_cast<size_t>(o)];
    reg.flit = bf.flit;
    reg.flit.vc = st.out_vc;
    reg.st_cycle = now + 1;
    next_valid |= 1u << static_cast<unsigned>(o);
    --op.credits[static_cast<size_t>(st.out_vc)];
    if (st.out_vc < op.cached_active) --op.cached_free_credits;
    if (reg.flit.is_tail()) {
      HN_CHECK_MSG(st.count == 0, "flits behind a tail in a wormhole VC");
      op.tail_sent |= 1u << static_cast<unsigned>(st.out_vc);
      st.state = VcState::S::Idle;
      ip.active_mask &= ~(1u << static_cast<unsigned>(v));
      --busy_vcs_;
      st.pkt = nullptr;
      st.out_vc = -1;
    }
  }
}

void Router::switch_traverse(Cycle now) {
  xbar_out_used_ = 0;
  // Drain this cycle's bank in ascending output order (the order SA filled
  // it in), then swap: the bank SA just filled becomes the next current.
  StRegBank& cur = st_regs_[static_cast<size_t>(st_cur_)];
  std::uint32_t valid = st_valid_[static_cast<size_t>(st_cur_)];
  st_valid_[static_cast<size_t>(st_cur_)] = 0;
  while (valid) {
    const int o = std::countr_zero(valid);
    valid &= valid - 1;
    StReg& reg = cur[static_cast<size_t>(o)];
    HN_CHECK_MSG(reg.st_cycle == now, "ST register missed its crossbar cycle");
    claim_xbar_output(static_cast<Port>(o));
    send_flit(static_cast<Port>(o), reg.flit, now);
  }
  st_cur_ ^= 1;
  traverse_circuit(now);
}

void Router::claim_xbar_output(Port out) {
  const std::uint32_t bit = 1u << static_cast<unsigned>(out);
  HN_CHECK_MSG(!(xbar_out_used_ & bit), "crossbar output conflict");
  xbar_out_used_ |= bit;
}

void Router::send_flit(Port out, Flit flit, Cycle now) {
  auto& op = out_[static_cast<size_t>(out)];
  HN_CHECK_MSG(op.data != nullptr, "flit sent to an unconnected port");
  ++energy_.xbar_flits;
  if (out != Port::Local) {
    ++energy_.link_flits;
    // Link-traversal fault hook: a fault corrupts the payload but the flit
    // still crosses (fail-dirty), so flow-control invariants are untouched.
    if (faults_ && faults_->on_traverse(id_, out, now)) flit.corrupted = true;
  }
  ++counts_[RouterCounter::FlitsTraversed];
  op.data->send(std::move(flit), now);
}

Port Router::route_adaptive(NodeId dst, Cycle now) {
  auto candidates = west_first_candidates(mesh_, id_, dst);
  if (faults_ && faults_->any_failed(now)) {
    // During a fault epoch config follows the same up*/down* tree as data:
    // the whole fabric then shares one acyclic channel ordering, whereas
    // mixing west-first config turns with tree-routed data could close a
    // dependency cycle neither ordering allows on its own. When the tree
    // offers nothing (destination partitioned off), fall back to the
    // original pick — the dead link corrupts the flit and lease/timeout
    // recovery cleans up, rather than the flit self-delivering at the wrong
    // node.
    const Port p = route_fault_aware(mesh_, *faults_, id_, dst, now);
    return p == Port::Local ? candidates.front() : p;
  }
  return select_by_credits(candidates,
                           [this](Port p) { return free_credits(p); });
}

bool Router::handle_arrival(Flit& flit, Port in, Cycle now) {
  (void)flit;
  (void)in;
  (void)now;
  return false;
}

bool Router::st_ok(Port in, Port out, Cycle st_cycle) {
  (void)in;
  (void)out;
  (void)st_cycle;
  return true;
}

std::optional<Port> Router::compute_route(Packet* pkt, Port in, Cycle now) {
  (void)in;
  if (pkt->dst == id_) return Port::Local;
  if (pkt->is_config()) return route_adaptive(pkt->dst, now);
  // Table I: X-Y for data — until the fabric has dead links, after which
  // every data packet follows the deadlock-free up*/down* detour routing
  // (fault-free runs never take this branch, so they stay bit-identical).
  if (faults_ && faults_->any_failed(now)) {
    const Port p = route_fault_aware(mesh_, *faults_, id_, pkt->dst, now);
    // Local = this router is fully cut off; fall back to XY (the dead link
    // corrupts the flit and end-to-end recovery takes over).
    return p == Port::Local ? route_data(pkt->dst) : p;
  }
  return route_data(pkt->dst);
}

void Router::collect_in_flight(std::vector<Packet*>& out) const {
  // No buffer block: no flit was ever buffered, so no ST register holds one.
  if (!buffers_) return;
  for (int p = 0; p < kNumPorts; ++p) {
    const VcState* vcs = in_[static_cast<size_t>(p)].vcs;
    for (unsigned v = 0; v < static_cast<unsigned>(cfg_.num_vcs); ++v) {
      const BufferedFlit* window = vc_window(p, v);
      for (int i = 0; i < vcs[v].count; ++i)
        if (Packet* pkt = window[vc_slot(vcs[v].head, i)].flit.pkt) out.push_back(pkt);
    }
  }
  // Current bank (older grants) first.
  for (int b = 0; b < 2; ++b) {
    const int bank = st_cur_ ^ b;
    std::uint32_t valid = st_valid_[static_cast<size_t>(bank)];
    while (valid) {
      const auto o = static_cast<size_t>(std::countr_zero(valid));
      valid &= valid - 1;
      if (Packet* pkt = st_regs_[static_cast<size_t>(bank)][o].flit.pkt)
        out.push_back(pkt);
    }
  }
}

bool Router::idle() const {
  // A buffered flit implies a non-Idle VC (head flits flip Idle -> WaitVc
  // before entering the buffer, and the tail leaves an empty window behind
  // when the VC goes Idle).
  return (st_valid_[0] | st_valid_[1]) == 0 && busy_vcs_ == 0;
}

int Router::powered_vcs() const {
  return announced_active_vcs_ + (draining_vc_ >= 0 ? 1 : 0);
}

void Router::vc_gating_tick(Cycle now) {
  if (!cfg_.vc_power_gating) return;

  // Complete an in-progress drain once the VC is empty everywhere and no
  // upstream allocator still owns it.
  if (draining_vc_ >= 0) {
    bool clear = true;
    for (auto& ip : in_) {
      if (!ip.data) continue;
      const VcState& st = ip.vcs[static_cast<size_t>(draining_vc_)];
      if (st.state != VcState::S::Idle) {
        clear = false;
        break;
      }
      if (ip.upstream && ip.upstream->holds_vc_allocation(ip.upstream_out, draining_vc_)) {
        clear = false;
        break;
      }
    }
    if (clear) draining_vc_ = -1;
  }

  busy_vc_integral_ += static_cast<std::uint64_t>(busy_vcs_);

  if (now < epoch_start_ + static_cast<Cycle>(cfg_.vc_gate_epoch_cycles)) return;

  // Epoch metric: either the busy-VC fraction (the paper's utilisation
  // scheme) or the mean cycles a flit sat buffered before winning the
  // switch (the latency metric proposed as future work). Both map onto the
  // same activate/drain decision against their respective thresholds.
  double metric, high, low;
  if (cfg_.vc_gate_metric == NocConfig::VcGateMetric::Latency) {
    metric = residency_count_
                 ? static_cast<double>(residency_sum_) /
                       static_cast<double>(residency_count_)
                 : 0.0;
    high = cfg_.vc_latency_high;
    low = cfg_.vc_latency_low;
  } else {
    const double denom = static_cast<double>(cfg_.vc_gate_epoch_cycles) *
                         static_cast<double>(ports_present_) *
                         static_cast<double>(std::max(1, announced_active_vcs_));
    metric = static_cast<double>(busy_vc_integral_) / denom;
    high = cfg_.vc_threshold_high;
    low = cfg_.vc_threshold_low;
  }
  busy_vc_integral_ = 0;
  residency_sum_ = 0;
  residency_count_ = 0;
  epoch_start_ = now;

  if (metric > high) {
    if (draining_vc_ >= 0) {
      // Demand came back before the drain finished: return the VC to service.
      ++announced_active_vcs_;
      draining_vc_ = -1;
    } else if (announced_active_vcs_ < cfg_.num_vcs) {
      ++announced_active_vcs_;  // power-on is immediate
    }
  } else if (metric < low && draining_vc_ < 0 &&
             announced_active_vcs_ > cfg_.min_active_vcs) {
    draining_vc_ = announced_active_vcs_ - 1;
    --announced_active_vcs_;  // upstream allocators stop using it now
  }
}

void Router::accounting_tick(Cycle now) {
  (void)now;
  ++energy_.cycles;
  energy_.vc_active_cycles +=
      static_cast<std::uint64_t>(powered_vcs()) * static_cast<std::uint64_t>(kNumPorts);
  energy_.link_active_cycles += static_cast<std::uint64_t>(links_out_);
}

void Router::accumulate_idle_energy(EnergyCounters& e, std::uint64_t ncycles) const {
  // Exactly what accounting_tick adds per cycle for an idle router. The
  // gating state (powered_vcs) cannot change while asleep: activation and
  // drain both require an epoch boundary, and sched_next_event keeps the
  // router awake across every boundary where they could fire.
  e.cycles += ncycles;
  e.vc_active_cycles += ncycles * static_cast<std::uint64_t>(powered_vcs()) *
                        static_cast<std::uint64_t>(kNumPorts);
  e.link_active_cycles += ncycles * static_cast<std::uint64_t>(links_out_);
}

void Router::align_epochs(Cycle now) {
  if (!cfg_.vc_power_gating) return;
  const auto epoch = static_cast<Cycle>(cfg_.vc_gate_epoch_cycles);
  // Advance epoch_start_ past the boundaries that fell inside the sleep;
  // those fired as no-ops (zero integrals, no drain, announced == resting
  // level) under the full sweep. The `now - 1` keeps a boundary landing
  // exactly on the wake cycle for the live vc_gating_tick to process.
  if (now > epoch_start_)
    epoch_start_ += epoch * ((now - 1 - epoch_start_) / epoch);
}

bool Router::sched_busy() const { return draining_vc_ >= 0 || !idle(); }

Cycle Router::sched_next_event(Cycle now) const {
  Cycle next = kCycleNever;
  // Empty channels answer kCycleNever: visit only the occupied ones.
  for (std::uint32_t m = pending_ & kPortBits; m; m &= m - 1)
    next = std::min(next, in_[static_cast<size_t>(std::countr_zero(m))].data->next_ready());
  for (std::uint32_t m = (pending_ >> kCreditPendingShift) & kPortBits; m; m &= m - 1)
    next = std::min(next,
                    out_[static_cast<size_t>(std::countr_zero(m))].credit_in->next_ready());
  if (cfg_.vc_power_gating) {
    // Wake for the next gating-epoch boundary whenever it is not provably a
    // no-op: pending integrals to fold, a drain in flight, a VC that could
    // be gated off, or thresholds degenerate enough that an all-idle epoch
    // still powers VCs on.
    const bool high_fires_idle =
        (cfg_.vc_gate_metric == NocConfig::VcGateMetric::Latency
             ? cfg_.vc_latency_high
             : cfg_.vc_threshold_high) < 0.0;
    if (busy_vc_integral_ > 0 || residency_count_ > 0 || residency_sum_ > 0 ||
        draining_vc_ >= 0 || announced_active_vcs_ > cfg_.min_active_vcs ||
        (high_fires_idle && announced_active_vcs_ < cfg_.num_vcs)) {
      const auto epoch = static_cast<Cycle>(cfg_.vc_gate_epoch_cycles);
      next = std::min(next, epoch_start_ + epoch * ((now - epoch_start_) / epoch + 1));
    }
  }
  return next;
}

EnergyCounters Router::settled_energy(Cycle now) const {
  EnergyCounters e = energy_;
  if (now > accounted_until_) accumulate_idle_energy(e, now - accounted_until_);
  return e;
}

void Router::settle_energy(Cycle through) {
  if (through + 1 > accounted_until_) {
    accumulate_idle_energy(energy_, through + 1 - accounted_until_);
    accounted_until_ = through + 1;
  }
}

template <typename Ar, typename Self>
void Router::layout(Ar& ar, Self& self) {
  ar.section("router");
  for (auto& ip : self.in_) {
    // Idle VCs carry no observable state beyond the arbiter pointer: a head
    // arrival rewrites route/eligibility fields from scratch.
    if (ip.data) {
      ar.ranged(ip.sa_rr, 0, self.cfg_.num_vcs - 1,
                "router input arbiter pointer out of range");
    }
  }
  for (auto& op : self.out_) {
    if (!op.data) continue;
    const auto nv = static_cast<unsigned>(self.cfg_.num_vcs);
    for (unsigned v = 0; v < nv; ++v) ar.field(op.credits[v]);
    for (unsigned v = 0; v < nv; ++v) {
      ar.bit(op.vc_busy, v);
      ar.bit(op.tail_sent, v);
    }
    ar.ranged(op.sa_rr, 0, kNumPorts - 1,
              "router output arbiter pointer out of range");
    ar.ranged(op.va_rr, 0, self.cfg_.num_vcs - 1,
              "router VC allocator pointer out of range");
  }
  ar.field(self.counts_.n);
  ar.ranged(self.announced_active_vcs_, 1, self.cfg_.num_vcs,
            "router active-VC count out of range");
  ar.ranged(self.draining_vc_, -1, self.cfg_.num_vcs - 1,
            "router draining VC out of range");
  ar.fields(self.busy_vc_integral_, self.residency_sum_,
            self.residency_count_, self.epoch_start_, self.energy_,
            self.accounted_until_);
}

void Router::save_state(StateWriter& w) const {
  HN_CHECK_MSG(idle(), "router checkpoint requires an idle router");
  layout(w, *this);
}

void Router::restore_state(StateReader& r) {
  layout(r, *this);
  for (auto& op : out_) {
    if (!op.data) continue;
    // The congestion-metric cache keys off downstream gating state that may
    // have changed: recompute on first use.
    op.cached_active = -1;
    op.grantable_mask = 0;
    for (unsigned v = 0; v < static_cast<unsigned>(cfg_.num_vcs); ++v) {
      if (!((op.vc_busy | op.tail_sent) >> v & 1u) &&
          op.credits[v] == cfg_.vc_buffer_depth) {
        op.grantable_mask |= 1u << v;
      }
    }
  }
}

}  // namespace hybridnoc
