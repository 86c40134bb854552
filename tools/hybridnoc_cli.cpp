// hybridnoc — command-line front end for the simulator.
//
//   hybridnoc synth  --arch tdm --pattern tornado --rate 0.2 [--k 6] [--csv]
//   hybridnoc synth  --workload nn:resnet50 --fidelity fast --k 8
//   hybridnoc sweep  --arch tdm --pattern uniform --from 0.05 --to 0.4 --step 0.05
//   hybridnoc hetero --cpu APPLU --gpu BLACKSCHOLES --arch hop-vct
//   hybridnoc trace-gen --pattern tornado --rate 0.2 --cycles 5000 --out t.trace
//   hybridnoc trace-gen --workload coherence --k 8 --out c.trace
//   hybridnoc trace-run --arch tdm --in t.trace
//
// `hybridnoc --workload ...` with no command is shorthand for `synth`.
// Workloads: nn:resnet50 | nn:transformer | nn:gnmt | nn:@file | coherence
// Architectures: packet | sdm | tdm | tdm-vct | hop | hop-vct
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/fileio.hpp"
#include "common/input.hpp"
#include "common/table.hpp"
#include "fastmodel/fast_model.hpp"
#include "hetero/benchmarks.hpp"
#include "hetero/hetero_system.hpp"
#include "sim/driver.hpp"
#include "traffic/trace.hpp"
#include "workloads/workload.hpp"

using namespace hybridnoc;

namespace {

/// Most rates one `sweep` runs; each is a full simulation.
constexpr double kMaxSweepRates = 1000;

/// --k, the mesh radix, in validate()'s range: trace-gen and trace-run use
/// it before any config is validated.
int mesh_radix(const Flags& a) {
  return a.num("k", 6, 2, NocConfig::kMaxMeshRadix);
}

NocConfig arch_preset(const std::string& name, int k) {
  if (name == "packet") return NocConfig::packet_vc4(k);
  if (name == "sdm") return NocConfig::hybrid_sdm_vc4(k);
  if (name == "tdm") return NocConfig::hybrid_tdm_vc4(k);
  if (name == "tdm-vct") return NocConfig::hybrid_tdm_vct(k);
  if (name == "hop") return NocConfig::hybrid_tdm_hop_vc4(k);
  if (name == "hop-vct") return NocConfig::hybrid_tdm_hop_vct(k);
  throw InputError("unknown --arch '" + name +
                   "' (packet|sdm|tdm|tdm-vct|hop|hop-vct)");
}

NocConfig arch_config(const Flags& a, const std::string& dflt_arch, int k) {
  NocConfig cfg = arch_preset(a.str("arch", dflt_arch), k);
  // --threads N runs the tick engine with N shards on worker threads;
  // results are bit-identical to --threads 1 (the default, one shard).
  cfg.tick_threads = a.num("threads", 1, 1, NocConfig::kMaxTickThreads);
  return cfg;
}

TrafficPattern pattern_arg(const std::string& name) {
  if (name == "uniform") return TrafficPattern::UniformRandom;
  if (name == "tornado") return TrafficPattern::Tornado;
  if (name == "transpose") return TrafficPattern::Transpose;
  if (name == "bitcomp") return TrafficPattern::BitComplement;
  if (name == "shuffle") return TrafficPattern::Shuffle;
  if (name == "hotspot") return TrafficPattern::Hotspot;
  throw InputError("unknown --pattern '" + name + "'");
}

Fidelity fidelity_arg(const std::string& name) {
  if (name == "cycle") return Fidelity::Cycle;
  if (name == "fast") return Fidelity::Fast;
  throw InputError("unknown --fidelity '" + name + "' (cycle|fast)");
}

RunParams run_params(const Flags& a, const NocConfig& cfg,
                     TrafficPattern pattern, double rate) {
  RunParams p;
  p.pattern = pattern;
  p.injection_rate = rate;
  p.warmup_packets = a.num<std::uint64_t>("warmup", 1000);
  p.measure_packets = a.num<std::uint64_t>("packets", 20000, 1);
  p.seed = a.num<std::uint64_t>("seed", 1);
  p.fidelity = fidelity_arg(a.str("fidelity", "cycle"));
  std::string why;
  if (p.fidelity == Fidelity::Fast && !fast_model_supports(cfg, &why)) {
    throw InputError("--fidelity fast: " + why);
  }
  return p;
}

void emit(const Flags& a, TextTable& t) {
  if (a.has("csv")) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
}

WorkloadOptions workload_options(const Flags& a, int k) {
  WorkloadOptions w;
  w.k = k;
  w.seed = a.num<std::uint64_t>("seed", 1);
  w.intensity = a.num("intensity", 1.0);
  w.nn_iterations = a.num("iterations", 4, 0);
  w.coherence_cycles = a.num<Cycle>("cycles", 4000);
  return w;
}

int cmd_synth(const Flags& a) {
  const int k = mesh_radix(a);
  const NocConfig cfg = arch_config(a, "tdm", k);
  // Every flag is read before the run, so a bad value fails even where
  // this mode ignores it.
  const WorkloadOptions wopt = workload_options(a, k);
  const TrafficPattern pattern = pattern_arg(a.str("pattern", "uniform"));
  RunParams params = run_params(
      a, cfg, pattern, a.num("rate", 0.1, 0.0, double(cfg.ps_data_flits)));
  const bool workload = a.has("workload");
  std::string source;
  RunResult r;
  if (workload) {
    const WorkloadTrace wt = build_workload(a.str("workload", ""), wopt);
    params.pattern = TrafficPattern::UniformRandom;
    params.injection_rate = wt.offered_rate;
    r = run_trace(cfg, wt.entries, params);
    source = wt.name;
  } else {
    r = run_synthetic(cfg, params);
    source = traffic_pattern_name(pattern);
  }
  TextTable t({"metric", "value"});
  t.add_row({"config", cfg.summary()});
  t.add_row({"fidelity", fidelity_name(params.fidelity)});
  t.add_row({workload ? "workload" : "pattern", source});
  t.add_row({"offered (flits/node/cyc)", TextTable::num(r.offered_rate, 3)});
  t.add_row({"accepted", TextTable::num(r.accepted_rate, 3)});
  t.add_row({"avg latency (cycles)", TextTable::num(r.avg_latency, 2)});
  t.add_row({"p99 latency", TextTable::num(r.p99_latency, 2)});
  t.add_row({"saturated", r.saturated ? "yes" : "no"});
  t.add_row({"cs flits", TextTable::pct(r.cs_flit_fraction, 1)});
  t.add_row({"config flits", TextTable::pct(r.config_flit_fraction, 2)});
  t.add_row({"energy (uJ)", TextTable::num(r.total_energy_pj() * 1e-6, 3)});
  emit(a, t);
  return 0;
}

int cmd_sweep(const Flags& a) {
  const int k = mesh_radix(a);
  const NocConfig cfg = arch_config(a, "tdm", k);
  const TrafficPattern pattern = pattern_arg(a.str("pattern", "uniform"));
  const double step = a.num("step", 0.05);
  // A step <= 0 would never end.
  check_input(step > 0.0, "--step must be positive");
  const double max_rate = cfg.ps_data_flits;
  const double from = a.num("from", 0.05, 0.0, max_rate);
  const double to = a.num("to", 0.4, 0.0, max_rate);
  check_input(from <= to, "--from exceeds --to");
  // Each rate is a full run; count them before allocating any.
  check_input((to + 1e-9 - from) / step < kMaxSweepRates,
              "--from, --to and --step ask for more than 1000 rates");
  std::vector<double> rates;
  for (double r = from; r <= to + 1e-9; r += step) rates.push_back(r);
  const auto results =
      sweep_load(cfg, run_params(a, cfg, pattern, 0.0), rates);
  TextTable t({"rate", "latency", "p99", "accepted", "cs", "saturated"});
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    t.add_row({TextTable::num(rates[i], 3), TextTable::num(r.avg_latency, 2),
               TextTable::num(r.p99_latency, 2), TextTable::num(r.accepted_rate, 3),
               TextTable::pct(r.cs_flit_fraction, 1), r.saturated ? "y" : "n"});
  }
  emit(a, t);
  return 0;
}

/// Throws InputError naming the valid ones unless `name` is in `benches`.
template <typename Bench>
void check_benchmark(const std::vector<Bench>& benches,
                     const std::string& flag, const std::string& name) {
  std::string names;
  for (const Bench& b : benches) {
    if (b.name == name) return;
    names += (names.empty() ? "" : "|") + b.name;
  }
  throw InputError("unknown --" + flag + " '" + name + "' (" + names + ")");
}

int cmd_hetero(const Flags& a) {
  const NocConfig cfg = arch_config(a, "hop-vct", 6);
  const std::string cpu = a.str("cpu", "APPLU");
  const std::string gpu = a.str("gpu", "BLACKSCHOLES");
  check_benchmark(cpu_benchmarks(), "cpu", cpu);
  check_benchmark(gpu_benchmarks(), "gpu", gpu);
  const WorkloadMix mix{cpu_benchmark(cpu), gpu_benchmark(gpu)};
  HeteroSystem sys(cfg, mix, a.num<std::uint64_t>("seed", 1));
  const auto m = sys.run(a.num<std::uint64_t>("warmup", 6000),
                         a.num<std::uint64_t>("cycles", 24000, 1));
  TextTable t({"metric", "value"});
  t.add_row({"mix", mix.name()});
  t.add_row({"config", cfg.summary()});
  t.add_row({"cpu ipc", TextTable::num(m.cpu_ipc, 3)});
  t.add_row({"gpu txn/cyc", TextTable::num(m.gpu_throughput, 3)});
  t.add_row({"gpu injection", TextTable::num(m.gpu_injection_rate, 3)});
  t.add_row({"cpu injection", TextTable::num(m.cpu_injection_rate, 3)});
  t.add_row({"cs flits", TextTable::pct(m.cs_flit_fraction, 1)});
  t.add_row({"energy (uJ)",
             TextTable::num(compute_breakdown(m.energy, EnergyParams::nangate45())
                                    .total() *
                                1e-6,
                            3)});
  emit(a, t);
  return 0;
}

int cmd_trace_gen(const Flags& a) {
  const int k = mesh_radix(a);
  const WorkloadOptions wopt = workload_options(a, k);
  const TrafficPattern pattern = pattern_arg(a.str("pattern", "uniform"));
  const double rate = a.num("rate", 0.1, 0.0, 5.0);
  const auto cycles = a.num<Cycle>("cycles", 5000);
  std::vector<TraceEntry> entries;
  if (a.has("workload")) {
    entries = build_workload(a.str("workload", ""), wopt).entries;
  } else {
    const Mesh mesh(k);
    SyntheticTraffic traffic(mesh, pattern, rate, 5, wopt.seed);
    for (Cycle c = 0; c < cycles; ++c) {
      traffic.generate(
          [&](NodeId s, NodeId d) { entries.push_back({c, s, d, 5}); });
    }
  }
  const std::string path = a.str("out", "traffic.trace");
  // Atomic write-temp-then-rename: an interrupted trace-gen never leaves a
  // half-written trace behind for trace-run to choke on.
  std::ostringstream out;
  save_trace(out, entries);
  std::string werr;
  if (!write_file_atomic(path, out.str(), &werr)) {
    throw InputError("cannot write trace '" + path + "': " + werr);
  }
  std::cout << "wrote " << entries.size() << " injections to " << path << "\n";
  return 0;
}

int cmd_trace_run(const Flags& a) {
  const int k = mesh_radix(a);
  const std::string path = a.str("in", "traffic.trace");
  std::ifstream in = open_input(path);
  std::vector<TraceEntry> entries = load_trace(in, path);
  check_trace(entries, k * k);
  auto net = make_network(arch_config(a, "tdm", k));
  TraceTraffic traffic(std::move(entries));
  StatAccumulator lat;
  net->set_deliver_handler([&](const PacketPtr& p, Cycle at) {
    lat.add(static_cast<double>(at - p->created));
  });
  PacketId id = 1;
  std::uint64_t injected = 0;
  while (!(traffic.exhausted() && net->quiescent())) {
    traffic.generate(net->now(), [&](NodeId s, NodeId d, int flits) {
      auto p = std::make_shared<Packet>();
      p->id = id++;
      p->src = s;
      p->dst = d;
      p->num_flits = flits;
      net->send(std::move(p));
      ++injected;
    });
    net->tick();
    if (net->now() > 10000000) {
      std::cerr << "giving up: network did not drain\n";
      return 1;
    }
  }
  TextTable t({"metric", "value"});
  t.add_row({"injections", std::to_string(injected)});
  t.add_row({"delivered", std::to_string(static_cast<std::uint64_t>(lat.count()))});
  t.add_row({"avg latency", TextTable::num(lat.mean(), 2)});
  t.add_row({"max latency", TextTable::num(lat.max(), 0)});
  t.add_row({"cycles", std::to_string(net->now())});
  t.add_row({"cs flits", std::to_string(net->cs_flits())});
  emit(a, t);
  return 0;
}

int usage() {
  std::cerr <<
      "usage: hybridnoc <command> [--key value ...]\n"
      "  synth      one synthetic run   (--arch --pattern --rate --k --threads\n"
      "                                  --fidelity cycle|fast --csv)\n"
      "             or workload run     (--workload nn:resnet50|nn:transformer\n"
      "                                  |nn:gnmt|nn:@file|coherence\n"
      "                                  --intensity --iterations --cycles)\n"
      "  sweep      load sweep          (--arch --pattern --from --to --step\n"
      "                                  --fidelity cycle|fast)\n"
      "  hetero     CPU+GPU workload    (--arch --cpu --gpu --cycles)\n"
      "  trace-gen  record a trace      (--pattern --rate --cycles --out,\n"
      "                                  or --workload ...)\n"
      "  trace-run  replay a trace      (--arch --in)\n";
  return 2;
}

/// A command and the flags it reads; any other flag is an error.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::vector<Flags::Decl> flags;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> c = {
      {"synth", cmd_synth,
       {{"k"}, {"arch"}, {"threads"}, {"pattern"}, {"rate"}, {"warmup"},
        {"packets"}, {"seed"}, {"fidelity"}, {"workload"}, {"intensity"},
        {"iterations"}, {"cycles"}, {"csv", 0}}},
      {"sweep", cmd_sweep,
       {{"k"}, {"arch"}, {"threads"}, {"pattern"}, {"from"}, {"to"}, {"step"},
        {"warmup"}, {"packets"}, {"seed"}, {"fidelity"}, {"csv", 0}}},
      {"hetero", cmd_hetero,
       {{"arch"}, {"threads"}, {"cpu"}, {"gpu"}, {"seed"}, {"warmup"},
        {"cycles"}, {"csv", 0}}},
      {"trace-gen", cmd_trace_gen,
       {{"k"}, {"pattern"}, {"rate"}, {"cycles"}, {"seed"}, {"out"},
        {"workload"}, {"intensity"}, {"iterations"}}},
      {"trace-run", cmd_trace_run,
       {{"k"}, {"arch"}, {"threads"}, {"in"}, {"csv", 0}}},
  };
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  // A leading flag (`hybridnoc --workload ...`) means "synth" — the
  // acceptance-criteria shorthand for running a workload end to end.
  const bool shorthand = argc > 1 && std::string_view(argv[1]).starts_with("--");
  const std::string name = shorthand ? "synth" : argc > 1 ? argv[1] : "";
  for (const Command& c : commands()) {
    if (name != c.name) continue;
    try {
      return c.run(Flags(argc, argv, shorthand ? 1 : 2, c.flags));
    } catch (const InputError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }
  return usage();
}
