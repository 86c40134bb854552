// Quickstart: build a TDM hybrid-switched mesh, drive a hot traffic pair
// until a circuit forms, and watch packets move from the packet-switched to
// the circuit-switched network.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "common/table.hpp"
#include "tdm/hybrid_network.hpp"

using namespace hybridnoc;

int main() {
  // Table-I configuration, shrunk slot tables so slot waits stay short for
  // this tiny demo.
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(6);
  cfg.slot_table_size = 32;
  cfg.path_freq_threshold = 4;

  HybridNetwork net(cfg);

  // Observe deliveries.
  std::uint64_t ps_delivered = 0, cs_delivered = 0;
  StatAccumulator ps_latency, cs_latency;
  net.set_deliver_handler([&](const PacketPtr& pkt, Cycle at) {
    const double latency = static_cast<double>(at - pkt->created);
    if (pkt->switching == Switching::Circuit) {
      ++cs_delivered;
      cs_latency.add(latency);
    } else {
      ++ps_delivered;
      ps_latency.add(latency);
    }
  });

  // A node in one corner talks continuously to the far corner.
  const NodeId src = net.mesh().node({0, 0});
  const NodeId dst = net.mesh().node({5, 5});
  PacketId next_id = 1;

  std::cout << "driving a hot pair " << src << " -> " << dst << " ...\n";
  bool announced = false;
  for (int cycle = 0; cycle < 20000; ++cycle) {
    if (cycle % 20 == 0) {
      auto pkt = std::make_shared<Packet>();
      pkt->id = next_id++;
      pkt->src = src;
      pkt->dst = dst;
      pkt->num_flits = cfg.ps_data_flits;
      net.ni(src).send(std::move(pkt), net.now());
    }
    net.tick();
    if (!announced && net.hybrid_ni(src).has_connection(dst)) {
      announced = true;
      std::cout << "cycle " << net.now()
                << ": circuit established (setup -> ack handshake done); "
                   "subsequent packets ride reserved time slots\n";
    }
  }

  print_banner(std::cout, "quickstart results");
  TextTable t({"switching", "packets", "avg latency (cycles)"});
  t.add_row({"packet-switched", std::to_string(ps_delivered),
             TextTable::num(ps_latency.mean(), 1)});
  t.add_row({"circuit-switched", std::to_string(cs_delivered),
             TextTable::num(cs_latency.mean(), 1)});
  t.print(std::cout);

  const auto e = net.total_energy();
  std::cout << "\ncircuit flits traversed routers in 1 cycle each, skipping "
               "buffers:\n  buffer writes = "
            << e.buffer_writes << ", circuit latch uses = " << e.cs_latch_flits
            << ", slot-table writes = " << e.slot_table_writes << "\n";
  std::cout << "setups sent: " << net.ni_counters()[NiCounter::SetupsSent]
            << ", active circuits now: " << net.total_active_connections()
            << "\n";
  return 0;
}
