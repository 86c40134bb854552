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
#include <algorithm>
#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
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

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  bool flag(const std::string& k) const { return kv.count(k) > 0; }
  std::string get(const std::string& k, const std::string& dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  /// Numeric value of --k, or `dflt` when absent. A value that is not
  /// wholly a number, or lies outside [lo, hi], throws InputError.
  double num(const std::string& k, double dflt, double lo = -kInf,
             double hi = kInf) const {
    const auto it = kv.find(k);
    if (it == kv.end()) return dflt;
    double v = std::nan("");
    try {
      size_t used = 0;
      v = std::stod(it->second, &used);
      if (used != it->second.size()) v = std::nan("");
    } catch (const std::exception&) {  // invalid_argument, out_of_range
    }
    if (!(v >= lo && v <= hi)) {  // NaN fails both
      std::ostringstream msg;
      msg << std::setprecision(16) << "--" << k << " expects a number in ["
          << lo << ", " << hi << "], got '" << it->second << "'";
      throw InputError(msg.str());
    }
    return v;
  }
  /// Whole-number value of --k (a count, size or seed) in [lo, hi], with
  /// `hi` capped at 2^53, below which a double holds every integer.
  template <typename T>
  T count(const std::string& k, T dflt, T lo = 0,
          T hi = std::numeric_limits<T>::max()) const {
    const double v = num(k, static_cast<double>(dflt), static_cast<double>(lo),
                         std::min(static_cast<double>(hi), 0x1p53));
    if (v != std::floor(v)) {
      throw InputError("--" + k + " expects a whole number, got '" + kv.at(k) +
                       "'");
    }
    return static_cast<T>(v);
  }
  static constexpr double kInf = std::numeric_limits<double>::infinity();
};

Args parse(int argc, char** argv) {
  Args a;
  int first_flag = 2;
  if (argc > 1) {
    // A leading flag (`hybridnoc --workload ...`) means "synth" — the
    // acceptance-criteria shorthand for running a workload end to end.
    if (std::string(argv[1]).rfind("--", 0) == 0) {
      a.command = "synth";
      first_flag = 1;
    } else {
      a.command = argv[1];
    }
  }
  for (int i = first_flag; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key].assign(1, '1');
    }
  }
  return a;
}

/// --k, the mesh radix, in validate()'s range: trace-gen and trace-run use
/// it before any config is validated.
int mesh_radix(const Args& a) {
  return a.count("k", 6, 2, NocConfig::kMaxMeshRadix);
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

NocConfig arch_config(const Args& a, const std::string& dflt_arch, int k) {
  NocConfig cfg = arch_preset(a.get("arch", dflt_arch), k);
  // --threads N runs the tick engine with N shards on worker threads;
  // results are bit-identical to --threads 1 (the default, one shard).
  cfg.tick_threads = a.count("threads", 1, 1);
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

RunParams run_params(const Args& a, const NocConfig& cfg,
                     TrafficPattern pattern, double rate) {
  RunParams p;
  p.pattern = pattern;
  p.injection_rate = rate;
  p.warmup_packets = a.count<std::uint64_t>("warmup", 1000);
  p.measure_packets = a.count<std::uint64_t>("packets", 20000, 1);
  p.seed = a.count<std::uint64_t>("seed", 1);
  p.fidelity = fidelity_arg(a.get("fidelity", "cycle"));
  std::string why;
  if (p.fidelity == Fidelity::Fast && !fast_model_supports(cfg, &why)) {
    throw InputError("--fidelity fast: " + why);
  }
  return p;
}

void emit(const Args& a, TextTable& t) {
  if (a.flag("csv")) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
}

WorkloadOptions workload_options(const Args& a, int k) {
  WorkloadOptions w;
  w.k = k;
  w.seed = a.count<std::uint64_t>("seed", 1);
  w.intensity = a.num("intensity", 1.0);
  w.nn_iterations = a.count("iterations", 4);
  w.coherence_cycles = a.count<Cycle>("cycles", 4000);
  return w;
}

int cmd_synth(const Args& a) {
  const int k = mesh_radix(a);
  const NocConfig cfg = arch_config(a, "tdm", k);
  const bool workload = a.flag("workload");
  std::string source;
  RunResult r;
  RunParams params;
  if (workload) {
    const WorkloadTrace wt =
        build_workload(a.get("workload", ""), workload_options(a, k));
    params = run_params(a, cfg, TrafficPattern::UniformRandom, wt.offered_rate);
    r = run_trace(cfg, wt.entries, params);
    source = wt.name;
  } else {
    const TrafficPattern pattern = pattern_arg(a.get("pattern", "uniform"));
    params = run_params(a, cfg, pattern,
                        a.num("rate", 0.1, 0.0, cfg.ps_data_flits));
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

int cmd_sweep(const Args& a) {
  const int k = mesh_radix(a);
  const NocConfig cfg = arch_config(a, "tdm", k);
  const TrafficPattern pattern = pattern_arg(a.get("pattern", "uniform"));
  const double step = a.num("step", 0.05);
  // Also rejects NaN; a step <= 0 would never end.
  check_input(step > 0.0, "--step must be positive");
  const double max_rate = cfg.ps_data_flits;
  const double from = a.num("from", 0.05, 0.0, max_rate);
  const double to = a.num("to", 0.4, 0.0, max_rate);
  check_input(from <= to, "--from exceeds --to");
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

int cmd_hetero(const Args& a) {
  const NocConfig cfg = arch_config(a, "hop-vct", 6);
  const std::string cpu = a.get("cpu", "APPLU");
  const std::string gpu = a.get("gpu", "BLACKSCHOLES");
  check_benchmark(cpu_benchmarks(), "cpu", cpu);
  check_benchmark(gpu_benchmarks(), "gpu", gpu);
  const WorkloadMix mix{cpu_benchmark(cpu), gpu_benchmark(gpu)};
  HeteroSystem sys(cfg, mix, a.count<std::uint64_t>("seed", 1));
  const auto m = sys.run(a.count<std::uint64_t>("warmup", 6000),
                         a.count<std::uint64_t>("cycles", 24000, 1));
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

int cmd_trace_gen(const Args& a) {
  const int k = mesh_radix(a);
  std::vector<TraceEntry> entries;
  if (a.flag("workload")) {
    entries = build_workload(a.get("workload", ""), workload_options(a, k))
                  .entries;
  } else {
    const Mesh mesh(k);
    SyntheticTraffic traffic(mesh, pattern_arg(a.get("pattern", "uniform")),
                             a.num("rate", 0.1, 0.0, 5.0), 5,
                             a.count<std::uint64_t>("seed", 1));
    const auto cycles = a.count<Cycle>("cycles", 5000);
    for (Cycle c = 0; c < cycles; ++c) {
      traffic.generate(
          [&](NodeId s, NodeId d) { entries.push_back({c, s, d, 5}); });
    }
  }
  const std::string path = a.get("out", "traffic.trace");
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

int cmd_trace_run(const Args& a) {
  const int k = mesh_radix(a);
  const std::string path = a.get("in", "traffic.trace");
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

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.command == "synth") return cmd_synth(a);
    if (a.command == "sweep") return cmd_sweep(a);
    if (a.command == "hetero") return cmd_hetero(a);
    if (a.command == "trace-gen") return cmd_trace_gen(a);
    if (a.command == "trace-run") return cmd_trace_run(a);
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
