// hnbench — the benchmark's measuring program (see perfbench/NOTES.md).
//
//   hnbench setup --workload W --seed N [--reps K]
//   hnbench run   --workload W --seed N [--force-fail]
//   hnbench trace --workload W --seed N [--force-fail]
//
// `setup` builds what the workload's first simulated cycle needs K times
// and prints each build time. `run` is one untraced run through the
// public entry point (run_synthetic, run_synthetic_fast, or HeteroSystem
// construction + run). `trace` is one traced run: a benchmark-owned loop
// that makes the same calls in the same order as the entry point, timing
// each call into a module from outside it. Every mode prints one JSON
// object on stdout; perfbench/run.py turns those into the benchmark's
// metrics and compares the traced run's simulated statistics with the
// untraced run's. --force-fail makes one real correctness check expect an
// impossible value, so tests can see a failed check reach failed_ops.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/pool.hpp"
#include "common/stats.hpp"
#include "fastmodel/fast_model.hpp"
#include "hetero/hetero_system.hpp"
#include "noc/network.hpp"
#include "power/energy_model.hpp"
#include "sim/driver.hpp"
#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"

using namespace hybridnoc;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Peak resident set of this process image in MiB. VmHWM restarts at exec;
/// getrusage's ru_maxrss does not, so it would report a larger parent's
/// peak for a small child.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f)) {
      std::sscanf(line, "VmHWM: %ld kB", &kib);
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- workloads

enum class Kind { Cycle, Fast, Hetero };

struct Workload {
  std::string name;
  Kind kind = Kind::Cycle;
  NocConfig cfg;
  RunParams params;  // Cycle and Fast
  std::uint64_t warmup_cycles = 0;   // Hetero
  std::uint64_t measure_cycles = 0;  // Hetero
};

// Why each workload exists is recorded in perfbench/NOTES.md. All run one
// thread (tick_threads = 1, the NocConfig default).
bool make_workload(const std::string& name, std::uint64_t seed, Workload& w) {
  w.name = name;
  w.params.seed = seed;
  w.params.max_cycles = 2'000'000;  // packet targets end runs, not this cap
  if (name == "ur8_sat") {
    w.cfg = NocConfig::hybrid_tdm_vc4(8);
    w.params.injection_rate = 0.3;
    w.params.measure_packets = 100'000;
  } else if (name == "ur32_sparse") {
    w.cfg = NocConfig::hybrid_tdm_vc4(32);
    w.params.injection_rate = 0.005;
    w.params.measure_packets = 30'000;
  } else if (name == "fast_ur32") {
    w.kind = Kind::Fast;
    w.cfg = NocConfig::hybrid_tdm_vc4(32);
    w.params.injection_rate = 0.05;
    w.params.measure_packets = 1'000'000;
    w.params.fidelity = Fidelity::Fast;
  } else if (name == "hetero_mix") {
    w.kind = Kind::Hetero;
    w.cfg = NocConfig::hybrid_tdm_hop_vct(6);  // 64-entry slot tables
    w.warmup_cycles = 10'000;
    w.measure_cycles = 100'000;
  } else {
    return false;
  }
  w.cfg.seed = seed;
  return true;
}

WorkloadMix hetero_mix() {
  return {cpu_benchmark("APPLU"), gpu_benchmark("BLACKSCHOLES")};
}

// ------------------------------------------------------------------ output

/// Flat JSON object writer: numbers print with 17 significant digits so
/// doubles round-trip exactly and run.py can compare them bit for bit.
class JsonOut {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    raw(k, buf);
  }
  void u64(const std::string& k, std::uint64_t v) {
    raw(k, std::to_string(v));
  }
  void boolean(const std::string& k, bool v) { raw(k, v ? "true" : "false"); }
  void str(const std::string& k, const std::string& v) {
    raw(k, "\"" + v + "\"");  // callers pass identifiers only
  }
  void raw(const std::string& k, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + k + "\": " + json;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Per-layer metrics of modules a workload does not run read 0. They are
/// written explicitly, so run.py can fail a run on any metric not emitted.
void put_unmeasured(JsonOut& o, std::initializer_list<const char*> names) {
  for (const char* n : names) o.num(n, 0.0);
}

constexpr std::initializer_list<const char*> kHeteroMetrics = {
    "hetero.build_s", "hetero.tick_ns_per_cycle.p50",
    "hetero.tick_ns_per_cycle.p99", "hetero.outstanding_txns.mean",
    "hetero.outstanding_txns.max"};
constexpr std::initializer_list<const char*> kFastMetrics = {
    "fastmodel.ns_per_packet", "fastmodel.rss_growth_mb"};
// Network and traffic metrics timed or sampled around calls that
// HeteroSystem and the fast model make internally.
constexpr std::initializer_list<const char*> kNocCallMetrics = {
    "noc.tick_ns_per_cycle.p50", "noc.tick_ns_per_cycle.p99",
    "noc.send_ns_per_packet", "noc.build_s", "noc.flits_in_flight.mean",
    "traffic.generate_ns_per_cycle", "traffic.packets_per_kcycle"};

std::string json_list(const std::vector<std::string>& items) {
  std::string s = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    s += (i ? ", \"" : "\"") + items[i] + "\"";
  }
  return s + "]";
}

/// Correctness checks; the names of failed ones go into the output and
/// run.py counts the run's operations as failed when any is present.
struct Checks {
  std::vector<std::string> failed;
  void expect(bool ok, const char* name) {
    if (!ok) failed.emplace_back(name);
  }
};

// --------------------------------------------------- simulated statistics

void put_energy(JsonOut& o, const EnergyCounters& e) {
  o.u64("stat.energy.buffer_writes", e.buffer_writes);
  o.u64("stat.energy.buffer_reads", e.buffer_reads);
  o.u64("stat.energy.xbar_flits", e.xbar_flits);
  o.u64("stat.energy.vc_arbs", e.vc_arbs);
  o.u64("stat.energy.sw_arbs", e.sw_arbs);
  o.u64("stat.energy.link_flits", e.link_flits);
  o.u64("stat.energy.slot_table_reads", e.slot_table_reads);
  o.u64("stat.energy.slot_table_writes", e.slot_table_writes);
  o.u64("stat.energy.dlt_accesses", e.dlt_accesses);
  o.u64("stat.energy.cs_latch_flits", e.cs_latch_flits);
  o.u64("stat.energy.cycles", e.cycles);
  o.u64("stat.energy.vc_active_cycles", e.vc_active_cycles);
  o.u64("stat.energy.slot_entry_active_cycles", e.slot_entry_active_cycles);
  o.u64("stat.energy.dlt_active_cycles", e.dlt_active_cycles);
  o.u64("stat.energy.cs_misc_active_cycles", e.cs_misc_active_cycles);
  o.u64("stat.energy.link_active_cycles", e.link_active_cycles);
}

/// The power layer's per-flit split of `e` over `flits`; the six
/// components sum to the energy_pj_per_flit end-to-end metric.
void put_power(JsonOut& o, const EnergyCounters& e, double flits, int num_vcs) {
  const EnergyBreakdown b = compute_breakdown(e, EnergyParams::nangate45());
  const auto per_flit = [&](EnergyComponent c) {
    return safe_ratio(b.dynamic(c) + b.leakage(c), flits);
  };
  o.num("power.buffer_pj_per_flit", per_flit(EnergyComponent::Buffer));
  o.num("power.cs_pj_per_flit", per_flit(EnergyComponent::CsComponent));
  o.num("power.crossbar_pj_per_flit", per_flit(EnergyComponent::Crossbar));
  o.num("power.arbiter_pj_per_flit", per_flit(EnergyComponent::Arbiter));
  o.num("power.clock_pj_per_flit", per_flit(EnergyComponent::Clock));
  o.num("power.link_pj_per_flit", per_flit(EnergyComponent::Link));
  o.num("power.static_share", safe_ratio(b.total_static(), b.total()));
  // Router::accounting_tick adds powered VCs x kNumPorts per router-cycle.
  o.num("power.vc_active_frac",
        safe_ratio(static_cast<double>(e.vc_active_cycles),
                   static_cast<double>(e.cycles) * kNumPorts * num_vcs));
}

/// Payload-equivalent flits delivered in a synthetic run's window.
double delivered_flits(const RunResult& r, const NocConfig& cfg) {
  return r.accepted_rate * cfg.num_nodes() * static_cast<double>(r.cycles);
}

/// The simulated statistics of a synthetic run that the traced run must
/// reproduce exactly, plus the end-to-end simulated metrics.
void put_synthetic(JsonOut& o, const RunResult& r, const NocConfig& cfg) {
  o.u64("stat.cycles", r.cycles);
  o.u64("stat.measured_packets", r.measured_packets);
  o.num("stat.avg_latency", r.avg_latency);
  o.num("stat.p99_latency", r.p99_latency);
  o.num("stat.accepted_rate", r.accepted_rate);
  o.num("stat.cs_flit_fraction", r.cs_flit_fraction);
  o.num("stat.config_flit_fraction", r.config_flit_fraction);
  o.boolean("stat.saturated", r.saturated);
  put_energy(o, r.energy);

  const double flits = delivered_flits(r, cfg);
  o.u64("ops", r.measured_packets);
  o.num("avg_latency_cycles", r.avg_latency);
  o.num("energy_pj_per_flit", safe_ratio(r.total_energy_pj(), flits));
  // No cores here: the per-source and network-wide delivery rates stand in
  // for per-core IPC and all-SM transactions per cycle (NOTES.md).
  o.num("cpu_ipc", r.accepted_rate);
  o.num("gpu_txn_per_cycle",
        safe_ratio(static_cast<double>(r.measured_packets),
                   static_cast<double>(r.cycles)));
  o.u64("window_cycles", r.cycles);
}

/// Flits injected (all classes, wire flits) in a hetero window.
double hetero_flits(const HeteroMetrics& m, int nodes) {
  return m.injection_rate * nodes * static_cast<double>(m.cycles);
}

void put_hetero(JsonOut& o, const HeteroMetrics& m, std::uint64_t work_units,
                int nodes) {
  o.u64("stat.cycles", m.cycles);
  o.num("stat.cpu_ipc", m.cpu_ipc);
  o.num("stat.gpu_throughput", m.gpu_throughput);
  o.num("stat.injection_rate", m.injection_rate);
  o.num("stat.gpu_injection_rate", m.gpu_injection_rate);
  o.num("stat.cpu_injection_rate", m.cpu_injection_rate);
  o.num("stat.cs_flit_fraction", m.cs_flit_fraction);
  o.num("stat.config_flit_fraction", m.config_flit_fraction);
  put_energy(o, m.energy);

  o.u64("ops", work_units);
  o.num("cpu_ipc", m.cpu_ipc);
  o.num("gpu_txn_per_cycle", m.gpu_throughput);
  // No packet-latency surface is public here; cycles per retired CPU
  // instruction is the latency the cores see (NOTES.md).
  o.num("avg_latency_cycles", safe_ratio(1.0, m.cpu_ipc));
  o.num("energy_pj_per_flit",
        safe_ratio(compute_breakdown(m.energy, EnergyParams::nangate45()).total(),
                   hetero_flits(m, nodes)));
  o.u64("window_cycles", m.cycles);
}

void check_synthetic(Checks& c, const Workload& w, const RunResult& r,
                     bool force_fail) {
  c.expect(!r.saturated, "not_saturated");
  // The fast model completes whole batches, so it may overshoot the target.
  c.expect(r.measured_packets >=
               w.params.measure_packets * (force_fail ? 2 : 1),
           "measured_packets");
  c.expect(r.cycles > 0 && std::isfinite(r.avg_latency) && r.avg_latency > 0,
           "latency_finite");
  c.expect(r.total_energy_pj() > 0, "energy_positive");
  if (w.kind == Kind::Fast) {
    c.expect(fast_model_supports(w.cfg), "fast_model_supports");
  }
}

void check_hetero(Checks& c, const HeteroMetrics& m, std::uint64_t setups,
                  bool force_fail) {
  c.expect(m.cs_flit_fraction >= (force_fail ? 1.5 : 0.3), "cs_flit_fraction");
  c.expect(setups > 0, "setups_sent");
  c.expect(m.cpu_ipc > 0 && m.gpu_throughput > 0, "cores_progress");
}

const HybridNetwork* hybrid_of(const NetAdapter& net) {
  return dynamic_cast<const HybridNetwork*>(net.mesh_network());
}

// ------------------------------------------------------------------- setup

/// Time `reps` builds of what the first simulated cycle needs. Fast-model
/// state is internal to run_synthetic_fast, so its build is a one-packet
/// run of the same configuration.
void mode_setup(const Workload& w, int reps, JsonOut& o) {
  std::vector<std::string> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    if (w.kind == Kind::Cycle) {
      const Mesh mesh(w.cfg.k);
      SyntheticTraffic traffic(mesh, w.params.pattern, w.params.injection_rate,
                               w.cfg.ps_data_flits, w.params.seed);
      auto net = make_network(w.cfg);
      const auto t1 = Clock::now();
      times.push_back(std::to_string(ns_between(t0, t1)));
    } else if (w.kind == Kind::Hetero) {
      HeteroSystem sys(w.cfg, hetero_mix(), w.params.seed);
      const auto t1 = Clock::now();
      times.push_back(std::to_string(ns_between(t0, t1)));
    } else {
      RunParams p = w.params;
      p.warmup_packets = 0;
      p.warmup_min_cycles = 0;
      p.measure_packets = 1;
      const RunResult r = run_synthetic_fast(w.cfg, p);
      const auto t1 = Clock::now();
      if (r.measured_packets < 1) break;  // run.py reports the missing builds
      times.push_back(std::to_string(ns_between(t0, t1)));
    }
  }
  o.raw("setup_ns", json_list(times));
}

// --------------------------------------------------------------- untraced

void mode_run(const Workload& w, bool force_fail, JsonOut& o, Checks& c) {
  if (w.kind == Kind::Hetero) {
    const auto t0 = Clock::now();
    HeteroSystem sys(w.cfg, hetero_mix(), w.params.seed);
    const HeteroMetrics m = sys.run(w.warmup_cycles, w.measure_cycles);
    const auto t1 = Clock::now();
    const std::uint64_t setups = hybrid_of(sys.network())->total_setups_sent();
    o.num("wall_s", ns_between(t0, t1) * 1e-9);
    // Totals from cycle 0: a window delta would need a probe between
    // warmup and measurement, which run() does not offer.
    put_hetero(o, m, sys.total_cpu_instructions() + sys.total_gpu_transactions(),
               w.cfg.num_nodes());
    check_hetero(c, m, setups, force_fail);
  } else {
    const auto t0 = Clock::now();
    const RunResult r = run_synthetic(w.cfg, w.params);
    const auto t1 = Clock::now();
    o.num("wall_s", ns_between(t0, t1) * 1e-9);
    put_synthetic(o, r, w.cfg);
    check_synthetic(c, w, r, force_fail);
  }
  o.num("peak_rss_mb", peak_rss_mb());
}

// ----------------------------------------------------------------- traced

/// Per-layer time and call count in one batch of simulated cycles.
struct Span {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  void add(Clock::time_point a, Clock::time_point b) {
    ns += ns_between(a, b);
    ++calls;
  }
};

constexpr std::uint64_t kBatchCycles = 1024;
constexpr std::uint64_t kProbeEvery = 64;  // cycles between state probes

/// Spans aggregated per layer per kBatchCycles-cycle batch, so memory grows
/// with run length / 1024 only. Written out at the end of the run.
struct Trace {
  std::vector<std::string> layers;
  std::vector<std::vector<Span>> batches;  // [batch][layer]
  std::vector<Span> current;
  std::uint64_t cycles_in_batch = 0;

  explicit Trace(std::vector<std::string> names)
      : layers(std::move(names)), current(layers.size()) {}

  void end_cycle() {
    if (++cycles_in_batch == kBatchCycles) flush();
  }
  void flush() {
    if (cycles_in_batch == 0) return;
    batches.push_back(current);
    current.assign(layers.size(), Span{});
    cycles_in_batch = 0;
  }
  std::int64_t total_ns(size_t layer) const {
    std::int64_t t = 0;
    for (const auto& b : batches) t += b[layer].ns;
    return t;
  }
  /// Quantile over full batches of the layer's ns per call.
  double batch_quantile(size_t layer, double q) const {
    std::vector<double> v;
    for (const auto& b : batches) {
      if (b[layer].calls == kBatchCycles) {
        v.push_back(static_cast<double>(b[layer].ns) / kBatchCycles);
      }
    }
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }
  std::uint64_t full_batches(size_t layer) const {
    std::uint64_t n = 0;
    for (const auto& b : batches) n += b[layer].calls == kBatchCycles;
    return n;
  }
  std::string spans_json() const {
    std::string s = "{\"batch_cycles\": " + std::to_string(kBatchCycles) +
                    ", \"layers\": " + json_list(layers) + ", \"batches\": [";
    for (size_t i = 0; i < batches.size(); ++i) {
      s += i ? ", [" : "[";
      for (size_t l = 0; l < layers.size(); ++l) {
        s += (l ? ", [" : "[") + std::to_string(batches[i][l].ns) + ", " +
             std::to_string(batches[i][l].calls) + "]";
      }
      s += "]";
    }
    return s + "]}";
  }
};

/// Running mean/max of sampled gauges.
struct Gauge {
  double sum = 0.0;
  double max = 0.0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    max = std::max(max, v);
    ++n;
  }
  double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/// Window deltas and end-of-window gauges of the TDM layer.
struct TdmSnapshot {
  std::uint64_t setups = 0, failures = 0, hitchhike = 0, vicinity = 0,
                bounces = 0, steals = 0;
  static TdmSnapshot of(const HybridNetwork& h) {
    return {h.total_setups_sent(),      h.total_setup_failures(),
            h.total_hitchhike_packets(), h.total_vicinity_packets(),
            h.total_hitchhike_bounces(), h.total_ps_steals()};
  }
};

void put_tdm(JsonOut& o, const HybridNetwork* h, const TdmSnapshot& start,
             double cs_frac, double cfg_frac, const EnergyCounters& e,
             double flits) {
  const TdmSnapshot end = h ? TdmSnapshot::of(*h) : TdmSnapshot{};
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double setups = d(end.setups, start.setups);
  const double failures = d(end.failures, start.failures);
  o.num("tdm.setups_sent", setups);
  o.num("tdm.setup_failures", failures);
  o.num("tdm.setup_success_ratio",
        safe_ratio(std::max(0.0, setups - failures), setups));
  o.num("tdm.cs_flit_fraction", cs_frac);
  o.num("tdm.config_flit_fraction", cfg_frac);
  o.num("tdm.hitchhike_packets", d(end.hitchhike, start.hitchhike));
  o.num("tdm.vicinity_packets", d(end.vicinity, start.vicinity));
  o.num("tdm.hitchhike_bounces", d(end.bounces, start.bounces));
  o.num("tdm.ps_steals", d(end.steals, start.steals));
  o.num("tdm.valid_slot_entries", h ? h->total_valid_slot_entries() : 0);
  o.num("tdm.active_connections", h ? h->total_active_connections() : 0);
  o.num("tdm.active_slots", h ? h->controller().active_slots() : 0);
  o.num("tdm.slot_table_reads_per_flit",
        safe_ratio(static_cast<double>(e.slot_table_reads), flits));
}

/// Writes the TickProfile metrics; returns the dispatches per cycle.
double put_noc_profile(JsonOut& o, const Network& net, const TickProfile& start,
                       std::uint64_t window_cycles) {
  const TickProfile p = net.tick_profile();
  const double dispatches =
      safe_ratio(static_cast<double>(p.ni_ticks + p.router_ticks),
                 static_cast<double>(p.cycles));
  o.num("noc.dispatches_per_cycle", dispatches);
  o.num("noc.pool_misses_per_kcycle",
        safe_ratio(1000.0 * static_cast<double>(p.pool_misses - start.pool_misses),
                   static_cast<double>(window_cycles)));
  return dispatches;
}

/// Traced twin of run_synthetic's cycle path (run_cycle_measured in
/// src/sim/driver.cpp): same construction order, same warmup rule, same
/// injection guard, generate-then-tick order and early exit. Each cycle
/// splits into three timed layer calls — SyntheticTraffic::generate, then
/// make_packet + NetAdapter::send for what it emitted, then
/// NetAdapter::tick. Deferring the sends until generate returns is
/// unobservable: generate draws only from its own RNG, and each node emits
/// at most one packet per cycle, so the saturation guard reads the same
/// queue depths.
void trace_cycle(const Workload& w, bool force_fail, JsonOut& o, Checks& c) {
  const NocConfig& cfg = w.cfg;
  const RunParams& params = w.params;
  Trace tr({"traffic.generate", "noc.send", "noc.tick"});
  enum : size_t { kGen, kSend, kTick };

  const auto t_begin = Clock::now();
  const Mesh mesh(cfg.k);
  SyntheticTraffic traffic(mesh, params.pattern, params.injection_rate,
                           cfg.ps_data_flits, params.seed);
  const auto t_build0 = Clock::now();
  auto net = make_network(cfg);
  const auto t_build1 = Clock::now();

  StatAccumulator lat;
  Histogram hist(5.0, 400);
  bool measuring = false;
  Cycle measure_start_cycle = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t window_delivered_flits = 0;
  std::uint64_t window_generated_flits = 0;
  std::uint64_t measured = 0;
  EnergyCounters energy_start;
  std::uint64_t ps_start = 0, cs_start = 0, cfgf_start = 0;
  std::unordered_map<PacketId, int> payload_flits;
  std::uint64_t outstanding_flits = 0;  // probe only

  net->set_deliver_handler([&](const PacketPtr& pkt, Cycle at) {
    ++delivered_total;
    const auto it = payload_flits.find(pkt->id);
    const int flits = it != payload_flits.end() ? it->second : 0;
    if (it != payload_flits.end()) payload_flits.erase(it);
    outstanding_flits -= static_cast<std::uint64_t>(flits);
    if (!measuring) return;
    window_delivered_flits += static_cast<std::uint64_t>(flits);
    if (pkt->created >= measure_start_cycle) {
      const double l = static_cast<double>(at - pkt->created);
      lat.add(l);
      hist.add(l);
      ++measured;
    }
  });

  PacketId next_id = 1;
  bool saturated = false;
  const int n_nodes = net->mesh().num_nodes();
  const auto inject = [&](NodeId src, NodeId dst, int flits,
                          bool cs_eligible) {
    if (net->inject_queue_depth(src) > 2000) {
      saturated = true;
      return;
    }
    if (measuring) window_generated_flits += static_cast<std::uint64_t>(flits);
    auto p = make_packet();
    p->id = next_id++;
    p->src = src;
    p->dst = dst;
    p->num_flits = flits;
    p->cs_eligible = cs_eligible;
    payload_flits.emplace(p->id, flits);
    outstanding_flits += static_cast<std::uint64_t>(flits);
    net->send(std::move(p));
  };

  const Network& mesh_net = *net->mesh_network();
  const HybridNetwork* hybrid = hybrid_of(*net);
  TickProfile profile_start;
  TdmSnapshot tdm_start;
  Gauge queue_depth, queue_max, in_flight;
  std::vector<std::pair<NodeId, NodeId>> emitted;
  emitted.reserve(static_cast<size_t>(n_nodes));
  std::uint64_t packets_emitted = 0;

  while (net->now() < params.max_cycles) {
    if (!measuring && delivered_total >= params.warmup_packets &&
        net->now() >= params.warmup_min_cycles) {
      measuring = true;
      measure_start_cycle = net->now();
      energy_start = net->energy();
      ps_start = net->ps_flits();
      cs_start = net->cs_flits();
      cfgf_start = net->config_flits();
      profile_start = mesh_net.tick_profile();
      if (hybrid) tdm_start = TdmSnapshot::of(*hybrid);
    }
    if (measuring && measured >= params.measure_packets) break;

    emitted.clear();
    const auto g0 = Clock::now();
    traffic.generate([&](NodeId s, NodeId d) { emitted.emplace_back(s, d); });
    const auto g1 = Clock::now();
    for (const auto& [s, d] : emitted) {
      inject(s, d, cfg.ps_data_flits, /*cs_eligible=*/true);
    }
    const auto g2 = Clock::now();
    net->tick();
    const auto g3 = Clock::now();
    tr.current[kGen].add(g0, g1);
    if (!emitted.empty()) tr.current[kSend].add(g1, g2);
    tr.current[kTick].add(g2, g3);
    packets_emitted += emitted.size();
    tr.end_cycle();

    if (measuring && (net->now() & 0x7ff) == 0 && lat.count() > 500 &&
        lat.mean() > params.latency_cap) {
      saturated = true;
      break;
    }
    if (measuring && net->now() % kProbeEvery == 0) {
      double depth_sum = 0.0, depth_max = 0.0;
      for (NodeId n = 0; n < n_nodes; ++n) {
        const double d = net->inject_queue_depth(n);
        depth_sum += d;
        depth_max = std::max(depth_max, d);
      }
      queue_depth.add(depth_sum / n_nodes);
      queue_max.add(depth_max);
      in_flight.add(static_cast<double>(outstanding_flits));
    }
  }
  tr.flush();

  RunResult r;
  r.offered_rate = params.injection_rate;
  r.measured_packets = measured;
  r.cycles = measuring ? net->now() - measure_start_cycle : 0;
  r.avg_latency = lat.mean();
  r.p99_latency = hist.quantile(0.99);
  r.saturated = saturated || measured < params.measure_packets;
  if (r.cycles > 0) {
    r.accepted_rate =
        static_cast<double>(window_delivered_flits) /
        (static_cast<double>(n_nodes) * static_cast<double>(r.cycles));
    const double offered_actual =
        static_cast<double>(window_generated_flits) /
        (static_cast<double>(n_nodes) * static_cast<double>(r.cycles));
    if (r.accepted_rate < 0.85 * offered_actual) r.saturated = true;
    r.energy = net->energy() - energy_start;
    const double ps = static_cast<double>(net->ps_flits() - ps_start);
    const double cs = static_cast<double>(net->cs_flits() - cs_start);
    const double cf = static_cast<double>(net->config_flits() - cfgf_start);
    r.cs_flit_fraction = safe_ratio(cs, ps + cs);
    r.config_flit_fraction = safe_ratio(cf, ps + cs + cf);
  }
  const auto t_end = Clock::now();
  const std::uint64_t total_cycles = net->now();

  const double flits = delivered_flits(r, cfg);
  put_synthetic(o, r, cfg);
  check_synthetic(c, w, r, force_fail);
  const double dispatches =
      put_noc_profile(o, mesh_net, profile_start, r.cycles);
  put_tdm(o, hybrid, tdm_start, r.cs_flit_fraction, r.config_flit_fraction,
          r.energy, flits);
  put_power(o, r.energy, flits, cfg.num_vcs);
  if (w.name == "ur32_sparse") {
    // Non-vacuity: the active-set scheduler must skip most of the 2N
    // components, or this workload measures a full sweep.
    c.expect(dispatches < 0.25 * 2 * n_nodes, "sparse_dispatches");
  }

  const std::int64_t wall_ns = ns_between(t_begin, t_end);
  const std::int64_t build_ns = ns_between(t_build0, t_build1);
  const std::int64_t layer_ns =
      build_ns + tr.total_ns(kGen) + tr.total_ns(kSend) + tr.total_ns(kTick);
  const double cyc = static_cast<double>(total_cycles);
  o.num("trace.wall_s", wall_ns * 1e-9);
  o.u64("trace.total_cycles", total_cycles);
  o.num("noc.build_s", build_ns * 1e-9);
  o.num("noc.tick_ns_per_cycle.p50", tr.batch_quantile(kTick, 0.50));
  o.num("noc.tick_ns_per_cycle.p99", tr.batch_quantile(kTick, 0.99));
  o.u64("trace.batches", tr.full_batches(kTick));
  o.num("noc.send_ns_per_packet",
        safe_ratio(static_cast<double>(tr.total_ns(kSend)),
                   static_cast<double>(packets_emitted)));
  o.num("noc.inject_queue_depth.mean", queue_depth.mean());
  o.num("noc.inject_queue_depth.max", queue_max.max);
  o.num("noc.flits_in_flight.mean", in_flight.mean());
  o.num("traffic.generate_ns_per_cycle",
        safe_ratio(static_cast<double>(tr.total_ns(kGen)), cyc));
  o.num("traffic.packets_per_kcycle",
        safe_ratio(1000.0 * static_cast<double>(packets_emitted), cyc));
  o.num("sim.unattributed_ns_per_cycle",
        safe_ratio(static_cast<double>(wall_ns - layer_ns), cyc));
  o.num("sim.latency_p99_cycles", r.p99_latency);
  put_unmeasured(o, kHeteroMetrics);
  put_unmeasured(o, kFastMetrics);
  o.raw("spans", tr.spans_json());

  // After the window: drain with policy frozen (Network::drain), then every
  // packet handed to send() must have been delivered exactly once.
  const bool drained = net->mesh_network_mut()->drain(1'000'000);
  c.expect(drained, "drain_quiescent");
  c.expect(net->data_sent() == net->data_delivered(), "sent_eq_delivered");
  c.expect(net->data_delivered() == delivered_total, "handler_count");
  c.expect(delivered_total == next_id - 1 && payload_flits.empty(),
           "every_packet_delivered");
}

/// Traced twin of HeteroSystem::run: the same warmup and measure tick
/// loops with each HeteroSystem::tick timed, and the same window
/// statistics read at the same points.
void trace_hetero(const Workload& w, bool force_fail, JsonOut& o, Checks& c) {
  Trace tr({"hetero.tick"});
  const auto t_begin = Clock::now();
  HeteroSystem sys(w.cfg, hetero_mix(), w.params.seed);
  const auto t_built = Clock::now();
  NetAdapter& net = sys.network();
  const Network& mesh_net = *net.mesh_network();
  const HybridNetwork* hybrid = hybrid_of(net);

  for (std::uint64_t i = 0; i < w.warmup_cycles; ++i) {
    const auto a = Clock::now();
    sys.tick();
    tr.current[0].add(a, Clock::now());
    tr.end_cycle();
  }

  const std::uint64_t instr0 = sys.total_cpu_instructions();
  const std::uint64_t gpu0 = sys.total_gpu_transactions();
  const EnergyCounters e0 = net.energy();
  const std::uint64_t ps0 = net.ps_flits();
  const std::uint64_t cs0 = net.cs_flits();
  const std::uint64_t cf0 = net.config_flits();
  const std::uint64_t gpu_flits0 = net.flits_of_class(TrafficClass::Gpu);
  const std::uint64_t cpu_flits0 = net.flits_of_class(TrafficClass::Cpu);
  const TickProfile profile_start = mesh_net.tick_profile();
  const TdmSnapshot tdm_start = TdmSnapshot::of(*hybrid);

  Gauge outstanding, queue_depth, queue_max;
  const int n_nodes = w.cfg.num_nodes();
  for (std::uint64_t i = 0; i < w.measure_cycles; ++i) {
    const auto a = Clock::now();
    sys.tick();
    tr.current[0].add(a, Clock::now());
    tr.end_cycle();
    outstanding.add(static_cast<double>(sys.outstanding_transactions()));
    if (sys.now() % kProbeEvery == 0) {
      double depth_sum = 0.0, depth_max = 0.0;
      for (NodeId n = 0; n < n_nodes; ++n) {
        const double d = net.inject_queue_depth(n);
        depth_sum += d;
        depth_max = std::max(depth_max, d);
      }
      queue_depth.add(depth_sum / n_nodes);
      queue_max.add(depth_max);
    }
  }
  tr.flush();

  // Same arithmetic as HeteroSystem::run.
  HeteroMetrics m;
  const std::uint64_t measure_cycles = w.measure_cycles;
  const double cores = sys.tiles().cpus().size();
  m.cycles = measure_cycles;
  m.cpu_ipc = static_cast<double>(sys.total_cpu_instructions() - instr0) /
              (static_cast<double>(measure_cycles) * cores);
  m.gpu_throughput = static_cast<double>(sys.total_gpu_transactions() - gpu0) /
                     static_cast<double>(measure_cycles);
  m.energy = net.energy() - e0;
  const double ps = static_cast<double>(net.ps_flits() - ps0);
  const double cs = static_cast<double>(net.cs_flits() - cs0);
  const double cf = static_cast<double>(net.config_flits() - cf0);
  const double node_cycles = static_cast<double>(measure_cycles) *
                             static_cast<double>(sys.tiles().num_tiles());
  m.injection_rate = (ps + cs + cf) / node_cycles;
  m.gpu_injection_rate =
      static_cast<double>(net.flits_of_class(TrafficClass::Gpu) - gpu_flits0) /
      node_cycles;
  m.cpu_injection_rate =
      static_cast<double>(net.flits_of_class(TrafficClass::Cpu) - cpu_flits0) /
      node_cycles;
  if (ps + cs > 0) m.cs_flit_fraction = cs / (ps + cs);
  if (ps + cs + cf > 0) m.config_flit_fraction = cf / (ps + cs + cf);
  const auto t_end = Clock::now();

  const double flits = hetero_flits(m, n_nodes);
  put_hetero(o, m, sys.total_cpu_instructions() + sys.total_gpu_transactions(),
             n_nodes);
  check_hetero(c, m, hybrid->total_setups_sent(), force_fail);
  put_noc_profile(o, mesh_net, profile_start, measure_cycles);
  put_tdm(o, hybrid, tdm_start, m.cs_flit_fraction, m.config_flit_fraction,
          m.energy, flits);
  put_power(o, m.energy, flits, w.cfg.num_vcs);

  const std::int64_t wall_ns = ns_between(t_begin, t_end);
  const std::int64_t build_ns = ns_between(t_begin, t_built);
  const double cyc = static_cast<double>(w.warmup_cycles + measure_cycles);
  o.num("trace.wall_s", wall_ns * 1e-9);
  o.u64("trace.total_cycles", w.warmup_cycles + measure_cycles);
  o.num("hetero.build_s", build_ns * 1e-9);
  o.num("hetero.tick_ns_per_cycle.p50", tr.batch_quantile(0, 0.50));
  o.num("hetero.tick_ns_per_cycle.p99", tr.batch_quantile(0, 0.99));
  o.u64("trace.batches", tr.full_batches(0));
  o.num("hetero.outstanding_txns.mean", outstanding.mean());
  o.num("hetero.outstanding_txns.max", outstanding.max);
  o.num("noc.inject_queue_depth.mean", queue_depth.mean());
  o.num("noc.inject_queue_depth.max", queue_max.max);
  o.num("sim.unattributed_ns_per_cycle",
        safe_ratio(static_cast<double>(wall_ns - build_ns - tr.total_ns(0)), cyc));
  put_unmeasured(o, kNocCallMetrics);
  put_unmeasured(o, kFastMetrics);
  put_unmeasured(o, {"sim.latency_p99_cycles"});  // no per-packet latency
  o.raw("spans", tr.spans_json());

  // After the window: cores, SMs, banks and memories act only inside
  // HeteroSystem::tick, and its delivery handler queues accesses without
  // sending, so draining the network alone brings it to quiescence. Every
  // packet sent must then have been delivered.
  const bool drained = net.mesh_network_mut()->drain(1'000'000);
  c.expect(drained, "drain_quiescent");
  c.expect(net.data_sent() == net.data_delivered(), "sent_eq_delivered");
}

/// The fast model is one public call; its trace is one span around it.
void trace_fast(const Workload& w, bool force_fail, JsonOut& o, Checks& c) {
  const double rss0 = peak_rss_mb();
  const auto t0 = Clock::now();
  const RunResult r = run_synthetic_fast(w.cfg, w.params);
  const auto t1 = Clock::now();
  const double flits = delivered_flits(r, w.cfg);
  put_synthetic(o, r, w.cfg);
  check_synthetic(c, w, r, force_fail);
  put_tdm(o, nullptr, {}, r.cs_flit_fraction, r.config_flit_fraction, r.energy,
          flits);
  put_power(o, r.energy, flits, w.cfg.num_vcs);
  const std::int64_t ns = ns_between(t0, t1);
  o.num("trace.wall_s", ns * 1e-9);
  o.u64("trace.total_cycles", r.cycles);
  o.num("fastmodel.ns_per_packet",
        safe_ratio(static_cast<double>(ns), static_cast<double>(r.measured_packets)));
  o.num("fastmodel.rss_growth_mb", peak_rss_mb() - rss0);
  o.num("sim.latency_p99_cycles", r.p99_latency);
  o.num("sim.unattributed_ns_per_cycle", 0.0);
  put_unmeasured(o, kNocCallMetrics);
  put_unmeasured(o, kHeteroMetrics);
  put_unmeasured(o, {"noc.dispatches_per_cycle", "noc.pool_misses_per_kcycle",
                     "noc.inject_queue_depth.mean", "noc.inject_queue_depth.max"});
  o.u64("trace.batches", 0);
  o.raw("spans", "{\"batch_cycles\": 0, \"layers\": [\"fastmodel.run\"], "
                 "\"batches\": [[[" + std::to_string(ns) + ", 1]]]}");
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: hnbench setup|run|trace --workload W --seed N "
               "[--reps K] [--force-fail]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 0;
  int reps = 1;
  bool force_fail = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--reps") {
      reps = std::atoi(next().c_str());
    } else if (a == "--force-fail") {
      force_fail = true;
    } else {
      usage();
    }
  }
  Workload w;
  if (seed == 0 || reps < 1 || !make_workload(workload, seed, w)) usage();

  JsonOut o;
  Checks c;
  o.str("mode", mode);
  o.str("workload", w.name);
  o.u64("seed", seed);
  o.str("build_type", HNBENCH_BUILD_TYPE);
  o.str("compiler", __VERSION__);
  if (mode == "setup") {
    mode_setup(w, reps, o);
  } else if (mode == "run") {
    mode_run(w, force_fail, o, c);
  } else if (mode == "trace") {
    if (w.kind == Kind::Cycle) {
      trace_cycle(w, force_fail, o, c);
    } else if (w.kind == Kind::Hetero) {
      trace_hetero(w, force_fail, o, c);
    } else {
      trace_fast(w, force_fail, o, c);
    }
  } else {
    usage();
  }
  o.raw("failed_checks", json_list(c.failed));
  std::printf("%s\n", o.done().c_str());
  return 0;
}
