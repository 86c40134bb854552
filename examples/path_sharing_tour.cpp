// A guided tour of circuit-switched path sharing (Section III-A):
//  1. a hot pair establishes a circuit along a row;
//  2. an intermediate node hitchhikes the idle circuit (DLT hop-on);
//  3. a message for a neighbour of the circuit's destination rides it and
//     hops off into the packet-switched network (vicinity sharing);
//  4. contention with the circuit's owner bounces the hitchhiker back to
//     packet switching, and the 2-bit failure counter escalates to a
//     dedicated setup.
#include <iostream>

#include "common/table.hpp"
#include "tdm/hybrid_network.hpp"

using namespace hybridnoc;

namespace {

PacketPtr data_packet(PacketId id, NodeId src, NodeId dst) {
  auto p = std::make_shared<Packet>();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->num_flits = 5;
  return p;
}

void drive(HybridNetwork& net, NodeId src, NodeId dst, PacketId& id, int packets,
           int gap) {
  for (int i = 0; i < packets; ++i) {
    net.ni(src).send(data_packet(id++, src, dst), net.now());
    for (int t = 0; t < gap; ++t) net.tick();
  }
}

}  // namespace

int main() {
  NocConfig cfg = NocConfig::hybrid_tdm_hop_vc4(6);  // both sharing schemes
  cfg.slot_table_size = 16;
  cfg.path_freq_threshold = 4;
  HybridNetwork net(cfg);

  const NodeId owner = net.mesh().node({0, 0});
  const NodeId dest = net.mesh().node({5, 0});
  const NodeId hiker = net.mesh().node({2, 0});
  const NodeId vicinity_dest = net.mesh().node({5, 1});
  PacketId id = 1;

  // 1. The owner's hot traffic sets the circuit up.
  std::cout << "1) owner " << owner << " sends hot traffic to " << dest << "...\n";
  drive(net, owner, dest, id, 40, 25);
  std::cout << "   circuit established: "
            << (net.hybrid_ni(owner).has_connection(dest) ? "yes" : "no")
            << "; slot-table entries at the source router: "
            << net.hybrid_router(owner).slots().valid_entries() << "\n";

  // 2. The hiker at (2,0) discovers the path in its DLT and hops on.
  std::cout << "\n2) " << hiker << " (on the path) sends to the same "
            << "destination — no setup of its own needed:\n";
  drive(net, hiker, dest, id, 20, 40);
  std::cout << "   hitchhiked packets: " << net.ni(hiker).counters()[NiCounter::HitchhikePackets]
            << ", setups sent by the hiker: " << net.ni(hiker).counters()[NiCounter::SetupsSent]
            << "\n";

  // 3. Vicinity: the owner sends to a neighbour of the circuit destination.
  std::cout << "\n3) owner sends to " << vicinity_dest
            << " (adjacent to the circuit destination):\n";
  drive(net, owner, vicinity_dest, id, 20, 40);
  std::cout << "   vicinity rides: " << net.ni(owner).counters()[NiCounter::VicinityPackets]
            << ", hop-offs executed at " << dest << ": "
            << net.ni(dest).counters()[NiCounter::VicinityHopoffs] << "\n";

  // 4. Contention: the owner floods its circuit; the hiker keeps trying.
  std::cout << "\n4) owner floods the circuit; hiker contends:\n";
  for (int cycle = 0; cycle < 8000; ++cycle) {
    if (cycle % 4 == 0) net.ni(owner).send(data_packet(id++, owner, dest), net.now());
    if (cycle % 32 == 0) net.ni(hiker).send(data_packet(id++, hiker, dest), net.now());
    net.tick();
  }
  std::cout << "   hitchhike bounces (re-sent packet-switched): "
            << net.ni_counters()[NiCounter::HitchhikeBounces]
            << "\n   hiker escalated to its own circuit: "
            << (net.hybrid_ni(hiker).has_connection(dest) ? "yes" : "no")
            << " (setups sent: " << net.ni(hiker).counters()[NiCounter::SetupsSent] << ")\n";

  const NiCounters totals = net.ni_counters();
  std::cout << "\nnetwork totals: cs packets " << totals[NiCounter::CsPackets]
            << ", hitchhiked " << totals[NiCounter::HitchhikePackets]
            << ", vicinity " << totals[NiCounter::VicinityPackets] << ", steals "
            << net.router_counters()[RouterCounter::PsSteals] << "\n";
  return 0;
}
