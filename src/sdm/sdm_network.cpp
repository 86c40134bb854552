#include "sdm/sdm_network.hpp"

#include "common/pool.hpp"

namespace hybridnoc {

namespace {
NocConfig plane_config(const NocConfig& cfg) {
  NocConfig p = cfg;
  p.arch = RouterArch::PacketSwitched;
  // One VC per plane; aggregate buffer storage matches the 4-VC baseline:
  // 4 VCs x 5 flits x 16 B = 1 VC x 20 phits x (16/P) B per plane x P planes.
  p.num_vcs = 1;
  p.vc_buffer_depth = cfg.vc_buffer_depth * cfg.num_vcs;
  p.channel_bytes = cfg.channel_bytes / cfg.sdm_planes;
  p.vc_power_gating = false;
  p.min_active_vcs = 1;
  return p;
}
}  // namespace

SdmNetwork::SdmNetwork(const NocConfig& cfg)
    : cfg_(cfg.validate()), mesh_(cfg.k) {
  HN_CHECK(cfg.arch == RouterArch::HybridSdm);
  reserved_.resize(static_cast<size_t>(cfg_.sdm_planes));
  for (int p = 0; p < cfg_.sdm_planes; ++p) {
    planes_.push_back(std::make_unique<Network>(plane_config(cfg_)));
    planes_.back()->set_deliver_handler([this](const PacketPtr& pp, Cycle at) {
      const auto it = ps_outstanding_.find(pp->id);
      HN_CHECK(it != ps_outstanding_.end());
      PacketPtr orig = it->second;
      ps_outstanding_.erase(it);
      ++delivered_;
      if (deliver_) deliver_(orig, at);
    });
  }
}

void SdmNetwork::set_deliver_handler(DeliverFn fn) { deliver_ = std::move(fn); }

std::vector<SdmNetwork::LinkId> SdmNetwork::path_links(NodeId src,
                                                       NodeId dst) const {
  std::vector<LinkId> links;
  for_each_xy_hop(mesh_, src, dst, [&](int, NodeId here, Port, Port out) {
    if (out != Port::Local) links.push_back(link_id(here, out));
    return true;
  });
  return links;
}

bool SdmNetwork::plane_free_on_path(int plane,
                                    const std::vector<LinkId>& links) const {
  const auto& taken = reserved_[static_cast<size_t>(plane)];
  for (const LinkId l : links) {
    if (taken.count(l)) return false;
  }
  return true;
}

void SdmNetwork::send(PacketPtr pkt) {
  HN_CHECK(pkt && mesh_.valid(pkt->src) && mesh_.valid(pkt->dst));
  if (pkt->created == 0) pkt->created = now_;
  if (pkt->final_dst == kInvalidNode) pkt->final_dst = pkt->dst;
  ++sent_;

  if (!frozen_ && pkt->cs_eligible) {
    ++freq_[{pkt->src, pkt->dst}];
    auto it = circuits_.find({pkt->src, pkt->dst});
    if (it != circuits_.end() && now_ >= it->second.usable_at) {
      send_circuit(it->second, pkt);
      return;
    }
    if (it == circuits_.end() &&
        freq_[{pkt->src, pkt->dst}] >= cfg_.path_freq_threshold) {
      maybe_setup_circuit(pkt->src, pkt->dst);
    }
  }
  send_packet_switched(pkt);
}

void SdmNetwork::send_circuit(Circuit& c, const PacketPtr& pkt) {
  // Serialization: the whole packet crosses the narrow plane at one phit
  // per cycle; hops are pipelined at one cycle each; +4 covers injection /
  // ejection latching at the endpoints.
  const int phits = cfg_.cs_data_flits * cfg_.sdm_planes;
  const int hops = mesh_.hop_distance(pkt->src, pkt->dst);
  const Cycle start = std::max(now_, c.busy_until);
  const Cycle deliver_at =
      start + static_cast<Cycle>(phits + hops + 4);
  c.busy_until = start + static_cast<Cycle>(phits);
  c.last_used = now_;
  pkt->switching = Switching::Circuit;
  pkt->injected = start;
  ++circuit_packets_;
  cs_in_flight_.push({deliver_at, pkt});
}

void SdmNetwork::send_packet_switched(const PacketPtr& pkt) {
  const auto links = path_links(pkt->src, pkt->dst);
  // Pick the least-recently-used plane whose path is unreserved; plane 0 is
  // never reserved and is the guaranteed fallback.
  int plane = 0;
  for (int i = 0; i < cfg_.sdm_planes; ++i) {
    const int cand = (next_plane_rr_ + i) % cfg_.sdm_planes;
    if (plane_free_on_path(cand, links)) {
      plane = cand;
      break;
    }
  }
  next_plane_rr_ = (plane + 1) % cfg_.sdm_planes;

  auto pp = make_packet();
  pp->id = pkt->id;
  pp->src = pkt->src;
  pp->dst = pkt->dst;
  pp->type = pkt->type;
  pp->traffic_class = pkt->traffic_class;
  pp->created = pkt->created;
  // Serialization over the narrow plane: every flit becomes P phits.
  pp->num_flits = pkt->num_flits * cfg_.sdm_planes;
  const auto [it, inserted] = ps_outstanding_.emplace(pkt->id, pkt);
  HN_CHECK_MSG(inserted, "duplicate packet id in SDM network");
  (void)it;
  planes_[static_cast<size_t>(plane)]->ni(pkt->src).send(std::move(pp), now_);
}

void SdmNetwork::maybe_setup_circuit(NodeId src, NodeId dst) {
  const auto links = path_links(src, dst);
  // Planes 1..P-1 can hold circuits; plane 0 always remains packet-switched.
  for (int plane = 1; plane < cfg_.sdm_planes; ++plane) {
    if (!plane_free_on_path(plane, links)) continue;
    for (const LinkId l : links) reserved_[static_cast<size_t>(plane)].insert(l);
    Circuit c;
    c.plane = plane;
    // Setup handshake over the packet-switched network (request + ack).
    c.usable_at = now_ + static_cast<Cycle>(
                             2 * (5 * mesh_.hop_distance(src, dst) + 12));
    c.last_used = now_;
    circuits_[{src, dst}] = c;
    return;
  }
  // No plane available on this path: the number of circuit-switched paths
  // in SDM is fundamentally limited by the plane count (Section I).
}

void SdmNetwork::teardown_idle_circuits() {
  for (auto it = circuits_.begin(); it != circuits_.end();) {
    if (now_ - it->second.last_used > cfg_.path_idle_timeout) {
      const auto links = path_links(it->first.first, it->first.second);
      for (const LinkId l : links)
        reserved_[static_cast<size_t>(it->second.plane)].erase(l);
      it = circuits_.erase(it);
    } else {
      ++it;
    }
  }
}

void SdmNetwork::tick() {
  for (auto& p : planes_) p->tick();
  while (!cs_in_flight_.empty() && cs_in_flight_.top().deliver_at <= now_) {
    const PacketPtr pkt = cs_in_flight_.top().pkt;
    cs_in_flight_.pop();
    ++delivered_;
    if (deliver_) deliver_(pkt, now_);
  }
  if (now_ >= epoch_start_ + static_cast<Cycle>(cfg_.policy_epoch_cycles)) {
    epoch_start_ = now_;
    freq_.clear();
    teardown_idle_circuits();
  }
  ++now_;
}

bool SdmNetwork::quiescent() const {
  if (!cs_in_flight_.empty() || !ps_outstanding_.empty()) return false;
  for (const auto& p : planes_) {
    if (!p->quiescent()) return false;
  }
  return true;
}

int SdmNetwork::reserved_links() const {
  int n = 0;
  for (const auto& s : reserved_) n += static_cast<int>(s.size());
  return n;
}

}  // namespace hybridnoc
