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
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/fileio.hpp"
#include "common/table.hpp"
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
  /// wholly a number, or lies outside [lo, hi], is a usage error (exit 2),
  /// never an abort, undefined behaviour or an uncaught exception.
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
      std::cerr << std::setprecision(16) << "error: --" << k
                << " expects a number in [" << lo << ", " << hi << "], got '"
                << it->second << "'\n";
      std::exit(2);
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
      std::cerr << "error: --" << k << " expects a whole number, got '"
                << kv.at(k) << "'\n";
      std::exit(2);
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

/// --k, the mesh radix: at least 2, and k * k node ids must fit an int.
int mesh_radix(const Args& a) { return a.count("k", 6, 2, 46340); }

NocConfig arch_preset(const std::string& name, int k) {
  if (name == "packet") return NocConfig::packet_vc4(k);
  if (name == "sdm") return NocConfig::hybrid_sdm_vc4(k);
  if (name == "tdm") return NocConfig::hybrid_tdm_vc4(k);
  if (name == "tdm-vct") return NocConfig::hybrid_tdm_vct(k);
  if (name == "hop") return NocConfig::hybrid_tdm_hop_vc4(k);
  if (name == "hop-vct") return NocConfig::hybrid_tdm_hop_vct(k);
  std::cerr << "error: unknown --arch '" << name
            << "' (packet|sdm|tdm|tdm-vct|hop|hop-vct)\n";
  std::exit(2);
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
  std::cerr << "error: unknown --pattern '" << name << "'\n";
  std::exit(2);
}

Fidelity fidelity_arg(const std::string& name) {
  if (name == "cycle") return Fidelity::Cycle;
  if (name == "fast") return Fidelity::Fast;
  std::cerr << "error: unknown --fidelity '" << name << "' (cycle|fast)\n";
  std::exit(2);
}

RunParams run_params(const Args& a, TrafficPattern pattern, double rate) {
  RunParams p;
  p.pattern = pattern;
  p.injection_rate = rate;
  p.warmup_packets = a.count<std::uint64_t>("warmup", 1000);
  p.measure_packets = a.count<std::uint64_t>("packets", 20000, 1);
  p.seed = a.count<std::uint64_t>("seed", 1);
  p.fidelity = fidelity_arg(a.get("fidelity", "cycle"));
  return p;
}

void emit(const Args& a, TextTable& t) {
  if (a.flag("csv")) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
}

/// Builds the named workload with validation armed to throw: an unknown
/// spec, an unreadable nn:@file descriptor, or a mismatched descriptor
/// becomes a structured error on stderr and `false`, never an abort.
bool build_workload_checked(const std::string& spec,
                            const WorkloadOptions& opts, WorkloadTrace* out) {
  try {
    ScopedCheckThrows guard;
    *out = build_workload(spec, opts);
    return true;
  } catch (const CheckFailure& e) {
    std::cerr << "error: bad --workload '" << spec << "': " << e.what()
              << "\n";
    return false;
  }
}

/// Loads a trace file with validation armed to throw, so a malformed entry
/// or out-of-order cycle reports the offending file instead of aborting.
bool load_trace_checked(const std::string& path,
                        std::vector<TraceEntry>* out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open trace file '" << path << "'\n";
    return false;
  }
  try {
    ScopedCheckThrows guard;
    *out = load_trace(in);
    return true;
  } catch (const CheckFailure& e) {
    std::cerr << "error: malformed trace file '" << path << "': " << e.what()
              << "\n";
    return false;
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
    WorkloadTrace wt;
    if (!build_workload_checked(a.get("workload", ""), workload_options(a, k),
                                &wt)) {
      return 2;
    }
    params = run_params(a, TrafficPattern::UniformRandom, wt.offered_rate);
    r = run_trace(cfg, wt.entries, params);
    source = wt.name;
  } else {
    const TrafficPattern pattern = pattern_arg(a.get("pattern", "uniform"));
    params = run_params(a, pattern,
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
  if (!(step > 0.0)) {  // also rejects NaN; a step <= 0 would never end
    std::cerr << "error: --step must be positive, got " << step << "\n";
    return 2;
  }
  const double max_rate = cfg.ps_data_flits;
  const double from = a.num("from", 0.05, 0.0, max_rate);
  const double to = a.num("to", 0.4, 0.0, max_rate);
  if (from > to) {
    std::cerr << "error: --from " << from << " exceeds --to " << to << "\n";
    return 2;
  }
  std::vector<double> rates;
  for (double r = from; r <= to + 1e-9; r += step) rates.push_back(r);
  const auto results = sweep_load(cfg, run_params(a, pattern, 0.0), rates);
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

/// Is `name` one of `benches`? If not, names the valid ones on stderr.
template <typename Bench>
bool known_benchmark(const std::vector<Bench>& benches,
                     const std::string& flag, const std::string& name) {
  for (const Bench& b : benches) {
    if (b.name == name) return true;
  }
  std::cerr << "error: unknown --" << flag << " '" << name << "' (";
  for (size_t i = 0; i < benches.size(); ++i) {
    std::cerr << (i ? "|" : "") << benches[i].name;
  }
  std::cerr << ")\n";
  return false;
}

int cmd_hetero(const Args& a) {
  const NocConfig cfg = arch_config(a, "hop-vct", 6);
  const std::string cpu = a.get("cpu", "APPLU");
  const std::string gpu = a.get("gpu", "BLACKSCHOLES");
  if (!known_benchmark(cpu_benchmarks(), "cpu", cpu) ||
      !known_benchmark(gpu_benchmarks(), "gpu", gpu)) {
    return 2;
  }
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
    WorkloadTrace wt;
    if (!build_workload_checked(a.get("workload", ""), workload_options(a, k),
                                &wt)) {
      return 2;
    }
    entries = std::move(wt.entries);
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
    std::cerr << "error: cannot write trace '" << path << "': " << werr
              << "\n";
    return 2;
  }
  std::cout << "wrote " << entries.size() << " injections to " << path << "\n";
  return 0;
}

int cmd_trace_run(const Args& a) {
  const int k = mesh_radix(a);
  auto net = make_network(arch_config(a, "tdm", k));
  std::vector<TraceEntry> entries;
  if (!load_trace_checked(a.get("in", "traffic.trace"), &entries)) return 2;
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
  if (a.command == "synth") return cmd_synth(a);
  if (a.command == "sweep") return cmd_sweep(a);
  if (a.command == "hetero") return cmd_hetero(a);
  if (a.command == "trace-gen") return cmd_trace_gen(a);
  if (a.command == "trace-run") return cmd_trace_run(a);
  return usage();
}
