// Ablation (Section III-A): path sharing variants on a heterogeneous mix —
// none / hitchhiker / vicinity / both — energy saving and sharing activity.
#include <iostream>

#include "bench_util.hpp"
#include "hetero/hetero_system.hpp"
#include "noc/network.hpp"

using namespace hybridnoc;
using namespace hybridnoc::bench;

int main() {
  print_banner(std::cout, "Ablation: circuit-switched path sharing",
               "APPLU+BLACKSCHOLES mix; savings vs Packet-VC4");

  const auto [warmup, measure] = hetero_windows();
  const WorkloadMix mix{cpu_benchmark("APPLU"), gpu_benchmark("BLACKSCHOLES")};

  HeteroSystem base(NocConfig::packet_vc4(6), mix, 1);
  const auto mb = base.run(warmup, measure);

  struct Variant {
    std::string name;
    bool hh, vic;
  };
  const std::vector<Variant> variants = {{"no sharing", false, false},
                                         {"hitchhiker only", true, false},
                                         {"vicinity only", false, true},
                                         {"both (hop)", true, true}};

  TextTable t({"variant", "energy saving", "cs flits", "hitchhike pkts",
               "vicinity pkts", "bounces"});
  for (const auto& v : variants) {
    NocConfig cfg = NocConfig::hybrid_tdm_vc4(6);
    cfg.hitchhiker_sharing = v.hh;
    cfg.vicinity_sharing = v.vic;
    if (v.hh || v.vic) cfg.slot_table_size = 64;  // sharing enables smaller tables
    HeteroSystem sys(cfg, mix, 1);
    const auto m = sys.run(warmup, measure);
    const NiCounters c = sys.network().mesh_network()->ni_counters();
    t.add_row({v.name, TextTable::pct(energy_saving(mb.energy, m.energy), 1),
               TextTable::pct(m.cs_flit_fraction, 1),
               std::to_string(c[NiCounter::HitchhikePackets]),
               std::to_string(c[NiCounter::VicinityPackets]),
               std::to_string(c[NiCounter::HitchhikeBounces])});
  }
  t.print(std::cout);
  std::cout << "\npaper: sharing adds ~2.8% energy saving over the basic "
               "hybrid scheme with negligible performance impact.\n";
  return 0;
}
