#include "noc/network.hpp"

#include <algorithm>
#include <array>
#include <unordered_set>
#include <utility>

#include "common/state_io.hpp"
#include "noc/parallel_engine.hpp"

namespace hybridnoc {

namespace {
/// One channel per index, all of one latency, each built in place (a
/// channel is neither copyable nor movable).
template <typename Ch, std::size_t... I>
std::array<Ch, sizeof...(I)> channel_array(int latency, std::index_sequence<I...>) {
  return {(static_cast<void>(I), Ch(latency))...};
}
}  // namespace

/// The inbound channels of one node, each held by value. A channel is
/// named for its consumer: the router polls its credit and flit inputs
/// every tick, so they lead the block.
struct alignas(64) Network::NodeChannels {
  /// Credits for each router output, from the downstream router (Local:
  /// from the NI's ejection buffer).
  std::array<CreditWire, kNumPorts> router_credit_in;
  /// Flits into each router input, from the upstream router (Local: the
  /// NI's injection).
  std::array<FlitChannel, kNumPorts> router_flit_in =
      channel_array<FlitChannel>(kDataChannelLatency,
                                 std::make_index_sequence<kNumPorts>{});
  FlitChannel ni_eject{kDataChannelLatency};           ///< router -> NI flits
  CreditWire ni_credit_in;  ///< injection credits
};

Network::Network(const NocConfig& cfg)
    : Network(
          cfg,
          [](const NocConfig& c, NodeId n, const Mesh& m) {
            return std::make_unique<Router>(c, n, m);
          },
          [](const NocConfig& c, NodeId n, const Mesh& m) {
            return std::make_unique<NetworkInterface>(c, n, m);
          }) {}

Network::Network(const NocConfig& cfg, RouterFactory make_router, NiFactory make_ni)
    : cfg_(cfg.validate()), mesh_(cfg.k), engine_(*this, cfg.tick_threads) {
  routers_.reserve(static_cast<size_t>(num_nodes()));
  nis_.reserve(static_cast<size_t>(num_nodes()));
  for (NodeId n = 0; n < num_nodes(); ++n) {
    routers_.push_back(make_router(cfg_, n, mesh_));
    nis_.push_back(make_ni(cfg_, n, mesh_));
  }
  router_ptrs_.reserve(routers_.size());
  ni_ptrs_.reserve(nis_.size());
  for (auto& r : routers_) router_ptrs_.push_back(r.get());
  for (auto& ni : nis_) {
    ni_ptrs_.push_back(ni.get());
    ni->set_deliver_handler(&deliver_);
  }
  watchdog_enabled_ = cfg_.watchdog_stall_cycles > 0;
  build();
  if (engine_.num_shards() > 1) {
    for (auto& ni : nis_) ni->set_stage_deliveries(true);
  }
  if (cfg_.link_ber > 0.0) ensure_fault_model();
}

Network::~Network() {
  // Teardown drain: flits reference their packet through a raw pointer and
  // the packet keeps itself alive via its flight anchor until every flit is
  // terminally consumed. A network destroyed mid-run still holds unconsumed
  // flits (channels, router buffers, NI plans); release each distinct
  // packet's anchor exactly once so nothing leaks. Dedup before releasing —
  // a packet's flits are usually spread across several containers, and the
  // first release may destroy the Packet object.
  std::vector<Packet*> in_flight;
  const auto collect = [&](const Flit& f) {
    if (f.pkt) in_flight.push_back(f.pkt);
  };
  for (NodeId n = 0; n < num_nodes(); ++n) {
    NodeChannels& c = channels_[static_cast<size_t>(n)];
    for (FlitChannel& ch : c.router_flit_in) ch.visit_in_flight(collect);
    c.ni_eject.visit_in_flight(collect);
  }
  for (const auto& r : routers_) r->collect_in_flight(in_flight);
  for (const auto& ni : nis_) ni->collect_in_flight(in_flight);
  std::unordered_set<Packet*> seen;
  for (Packet* p : in_flight) {
    if (!seen.insert(p).second) continue;
    p->live_flits = 0;
    PacketPtr anchor = std::move(p->flight);  // dropped at scope exit
  }
}

void Network::set_engine_force_serial(bool on) {
  engine_.set_force_serial(on);
}

FaultModel& Network::ensure_fault_model() {
  if (!faults_) {
    faults_ = std::make_unique<FaultModel>(cfg_.k, cfg_.link_ber, cfg_.fault_seed);
    for (auto& r : routers_) r->set_fault_model(faults_.get());
    for (auto& ni : nis_) ni->set_fault_model(faults_.get());
  }
  return *faults_;
}

void Network::build() {
  channels_ = std::make_unique<NodeChannels[]>(static_cast<size_t>(num_nodes()));
  auto node_channels = [&](NodeId n) -> NodeChannels& {
    return channels_[static_cast<size_t>(n)];
  };

  // Per-consumer scheduler: that of the shard owning the consuming component.
  auto sched_for = [&](int id) { return engine_.sched_for(id); };
  for (NodeId n = 0; n < num_nodes(); ++n) {
    Router& r = *routers_[static_cast<size_t>(n)];
    NetworkInterface& ni = *nis_[static_cast<size_t>(n)];
    ni.set_scheduler(sched_for(ni_sched_id(n)), ni_sched_id(n));

    // NI <-> router local port. Every channel registers its consumer so
    // sends wake the right component at the item's ready cycle. NI n and
    // router n always share a shard, so these four never cross shards.
    NodeChannels& own = node_channels(n);
    FlitChannel* inj = &own.router_flit_in[static_cast<size_t>(Port::Local)];
    CreditWire* inj_cr = &own.ni_credit_in;
    FlitChannel* ej = &own.ni_eject;
    CreditWire* ej_cr = &own.router_credit_in[static_cast<size_t>(Port::Local)];
    inj->set_consumer(sched_for(router_sched_id(n)), router_sched_id(n));
    inj_cr->set_consumer(sched_for(ni_sched_id(n)), ni_sched_id(n));
    ej->set_consumer(sched_for(ni_sched_id(n)), ni_sched_id(n));
    ej_cr->set_consumer(sched_for(router_sched_id(n)), router_sched_id(n));
    r.connect_input(Port::Local, inj, inj_cr, &ni, Port::Local);
    r.connect_output(Port::Local, ej, ej_cr);
    r.set_downstream_active_vcs(Port::Local, ni.eject_active_vcs_ptr());
    ni.connect(inj, inj_cr, ej, ej_cr, &r);

    // Directed mesh links: wire the outgoing side here, both ends at once.
    // The data channel lives with its consumer m, the credit channel with
    // its consumer n.
    for (int pi = 1; pi < kNumPorts; ++pi) {
      const Port p = static_cast<Port>(pi);
      if (!mesh_.has_neighbor(n, p)) continue;
      const NodeId m = mesh_.neighbor(n, p);
      Router& nb = *routers_[static_cast<size_t>(m)];
      FlitChannel* data =
          &node_channels(m).router_flit_in[static_cast<size_t>(opposite(p))];
      CreditWire* cr = &own.router_credit_in[static_cast<size_t>(pi)];
      data->set_consumer(sched_for(router_sched_id(m)), router_sched_id(m));
      cr->set_consumer(sched_for(router_sched_id(n)), router_sched_id(n));
      // Mesh links are the only channels that can cross a shard boundary
      // (data flows n -> m, the matching credits m -> n).
      engine_.register_link_channel(data, router_sched_id(n),
                                     router_sched_id(m));
      engine_.register_link_channel(cr, router_sched_id(m),
                                     router_sched_id(n));
      r.connect_output(p, data, cr);
      nb.connect_input(opposite(p), data, cr, &r, p);
      r.set_downstream_active_vcs(p, nb.announced_active_vcs_ptr());
    }
  }
}

void Network::watchdog_tick() {
  // Sweep cadence matches the reservation-lease sweep so the two scans share
  // wake cycles. Flagging is stat-only (stall_flagged + counters), so where
  // the sweep lands inside the cycle is unobservable. The caller has already
  // checked watchdog_enabled_ and the 1024-cycle boundary, so every call
  // here is a real sweep, never a per-cycle no-op.
  ++profile_.watchdog_sweeps;
  for (NetworkInterface* ni : ni_ptrs_) {
    ni->watchdog_scan(now_, cfg_.watchdog_stall_cycles);
  }
}

void Network::tick() {
  ++profile_.cycles;
  if (watchdog_enabled_ && now_ != 0 && (now_ & 1023) == 0) watchdog_tick();
  engine_.run_cycle(now_);
  ++now_;
}

void Network::fast_forward(Cycle target) {
  while (now_ < target) {
    // The wake state lives in the per-shard schedulers; quiescence is the
    // conjunction over shards and the jump target the minimum of their wake
    // heaps. Promoting due wakes is idempotent at a fixed cycle, so the
    // tick re-running it is harmless.
    Cycle wake;
    if (engine_.idle_at(now_, &wake)) {
      // Nothing can happen until the earliest component wake or external
      // (controller) event: jump there in one step. Skipped cycles are
      // provably no-ops, and their energy constants fold in lazily.
      Cycle jump = std::min({target, wake, external_next_event(now_)});
      // The starvation watchdog must observe every sweep boundary, or its
      // flags would differ from a cycle-by-cycle run.
      if (watchdog_enabled_) {
        jump = std::min(jump, (now_ | 1023) + 1);
      }
      if (jump > now_) {
        ++profile_.ff_jumps;
        profile_.ff_skipped_cycles += jump - now_;
        now_ = jump;
      }
      if (now_ >= target) break;
    }
    tick();
  }
}

void Network::set_deliver_handler(const DeliverFn& fn) { deliver_ = fn; }

void Network::set_policy_frozen(bool frozen) {
  for (auto& ni : nis_) ni->set_policy_frozen(frozen);
}

bool Network::quiescent() const {
  for (const auto& ni : nis_)
    if (!ni->idle()) return false;
  for (const auto& r : routers_)
    if (!r->idle()) return false;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const NodeChannels& c = channels_[static_cast<size_t>(n)];
    for (const FlitChannel& ch : c.router_flit_in)
      if (!ch.empty()) return false;
    if (!c.ni_eject.empty()) return false;
  }
  return true;
}

EnergyCounters Network::total_energy() const {
  // Incrementally settled query: the component sweep runs at most once per
  // cycle value. Energy only changes inside ticks (which advance now_
  // afterwards), so a repeat query at an unchanged clock returns the memo.
  if (energy_memo_at_ == now_) return energy_memo_;
  EnergyCounters total;
  for (const Router* r : router_ptrs_) total += r->settled_energy(now_);
  for (const NetworkInterface* ni : ni_ptrs_) total += ni->settled_energy(now_);
  energy_memo_ = total;
  energy_memo_at_ = now_;
  return total;
}

TickProfile Network::tick_profile() const {
  TickProfile p = profile_;
  engine_.accumulate_profile(p);
  const AllocStats::Snapshot now = AllocStats::instance().snapshot();
  p.packets_minted = now.packets_minted - alloc_base_.packets_minted;
  p.pool_hits = now.pool_hits - alloc_base_.pool_hits;
  p.pool_misses = now.pool_misses - alloc_base_.pool_misses;
  p.flight_acquires = now.flight_acquires - alloc_base_.flight_acquires;
  p.flight_releases = now.flight_releases - alloc_base_.flight_releases;
  return p;
}

NiCounters Network::ni_counters() const {
  NiCounters t;
  for (const NetworkInterface* ni : ni_ptrs_) t += ni->counters();
  return t;
}

RouterCounters Network::router_counters() const {
  RouterCounters t;
  for (const Router* r : router_ptrs_) t += r->counters();
  return t;
}

std::uint64_t Network::total_flits_of_class(TrafficClass c) const {
  std::uint64_t t = 0;
  for (const auto& ni : nis_) t += ni->flits_of_class(c);
  return t;
}

DegradationReport Network::degradation_report() const {
  DegradationReport r;
  for (const auto& ni : nis_) r.e2e_outstanding += ni->e2e_outstanding();
  if (faults_) {
    r.corrupted_traversals = faults_->corrupted_traversals();
    r.failed_links = faults_->failed_links(now_);
    r.bisection_links_total = faults_->bisection_links_total();
    r.bisection_links_alive = faults_->bisection_links_alive(now_);
  }
  return r;
}

bool Network::credits_home() const {
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const NodeChannels& c = channels_[static_cast<size_t>(n)];
    for (const CreditWire& w : c.router_credit_in)
      if (w.in_flight() != 0) return false;
    if (c.ni_credit_in.in_flight() != 0) return false;
  }
  return true;
}

bool Network::drain(Cycle max_cycles) {
  set_policy_frozen(true);
  const Cycle deadline = now_ + max_cycles;
  while (!quiescent() || !credits_home()) {
    if (now_ >= deadline) return false;
    tick();
  }
  return true;
}

template <typename Ar, typename Self>
void Network::layout(Ar& ar, Self& self) {
  constexpr const char* kMismatch = "checkpoint topology/config mismatch";
  ar.section("network");
  ar.field(self.now_);
  ar.expect(self.cfg_.k, kMismatch);
  ar.expect(self.cfg_.num_vcs, kMismatch);
  ar.expect(self.cfg_.vc_buffer_depth, kMismatch);
  if constexpr (Ar::kReading) {
    self.restore_external_state(ar);
  } else {
    self.save_external_state(ar);
  }
  for (const auto& ni : self.nis_) ar.field(*ni);
  for (const auto& r : self.routers_) ar.field(*r);
}

std::string Network::save_state() const {
  HN_CHECK_MSG(quiescent() && credits_home(),
               "checkpoint requires a drained network");
  HN_CHECK_MSG(!faults_, "checkpoint does not cover the fault model");
  HN_CHECK_MSG(engine_.num_shards() == 1,
               "checkpoint requires tick_threads == 1");
  StateWriter w;
  layout(w, *this);
  return w.seal();
}

void Network::restore_state(const std::string& sealed) {
  HN_CHECK_MSG(now_ == 0 && quiescent(),
               "restore requires a freshly constructed network");
  HN_CHECK_MSG(!faults_, "restore does not cover the fault model");
  HN_CHECK_MSG(engine_.num_shards() == 1,
               "restore requires tick_threads == 1");
  StateReader r(sealed);  // verifies magic/version/digest, throws StateError
  layout(r, *this);
  r.finish();
  energy_memo_at_ = kCycleNever;
  // The scheduler keeps its fresh all-active state: the first tick then
  // behaves exactly like a full sweep (spurious ticks of idle components
  // are deterministic no-ops), after which components earn their way back
  // to sleep — identical observable behaviour to the saved network.
}

}  // namespace hybridnoc
