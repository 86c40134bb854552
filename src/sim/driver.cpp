#include "sim/driver.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/pool.hpp"
#include "common/state_io.hpp"
#include "fastmodel/fast_model.hpp"
#include "noc/network.hpp"
#include "tdm/switching_policy.hpp"

namespace hybridnoc {

namespace {

/// Where a measured run starts and, on return, where it stopped. A fresh
/// network warms up under the standard criterion first; a warm one
/// (drained, policy unfrozen) opens the window at once.
struct RunState {
  PacketId next_id = 1;
  bool saturated = false;  ///< source queues diverged
  bool warm = false;
};

/// The cycle core's warmup/measure/saturation loop. `gen(now, inject)` is
/// called once per cycle and emits that cycle's injections via
/// inject(src, dst, flits, cs_eligible).
template <typename GenerateFn>
RunResult run_cycle_measured(NetAdapter& net, const RunParams& params,
                             double offered_rate, GenerateFn&& gen,
                             RunState& run) {
  StatAccumulator lat;
  Histogram hist(5.0, 400);
  bool measuring = false;
  Cycle measure_start_cycle = 0;
  std::uint64_t delivered_total = 0;
  WindowTally w;
  EnergyCounters energy_start;
  std::uint64_t ps_start = 0, cs_start = 0, cfgf_start = 0;

  // Payload flits as injected, keyed by packet id: circuit transfers rewrite
  // num_flits to the fixed CS transfer size, so the packet itself no longer
  // remembers what the workload offered.
  std::unordered_map<PacketId, int> payload_flits;

  net.set_deliver_handler([&](const PacketPtr& pkt, Cycle at) {
    ++delivered_total;
    const auto it = payload_flits.find(pkt->id);
    const int flits = it != payload_flits.end() ? it->second : 0;
    if (it != payload_flits.end()) payload_flits.erase(it);
    if (!measuring) return;
    w.delivered_flits += static_cast<std::uint64_t>(flits);
    if (pkt->created >= measure_start_cycle) {
      const double l = static_cast<double>(at - pkt->created);
      lat.add(l);
      hist.add(l);
      ++w.measured_packets;
    }
  });

  const auto inject = [&](NodeId src, NodeId dst, int flits,
                          bool cs_eligible) {
    if (net.inject_queue_depth(src) > 2000) {
      run.saturated = true;  // source queues diverging: deep saturation
      return;
    }
    if (measuring) w.generated_flits += static_cast<std::uint64_t>(flits);
    auto p = make_packet();
    p->id = run.next_id++;
    p->src = src;
    p->dst = dst;
    p->num_flits = flits;
    p->cs_eligible = cs_eligible;
    payload_flits.emplace(p->id, flits);
    net.send(std::move(p));
  };

  while (net.now() < params.max_cycles) {
    if (!measuring &&
        (run.warm || (delivered_total >= params.warmup_packets &&
                      net.now() >= params.warmup_min_cycles))) {
      measuring = true;
      measure_start_cycle = net.now();
      energy_start = net.energy();
      ps_start = net.ps_flits();
      cs_start = net.cs_flits();
      cfgf_start = net.config_flits();
    }
    if (measuring && w.measured_packets >= params.measure_packets) break;

    gen(net.now(), inject);
    net.tick();

    // Early exit once mean latency shows the knee is far behind us.
    if (measuring && (net.now() & 0x7ff) == 0 && lat.count() > 500 &&
        lat.mean() > params.latency_cap) {
      run.saturated = true;
      break;
    }
  }
  net.set_deliver_handler({});  // the handler's state ends here

  if (measuring) {
    w.cycles = net.now() - measure_start_cycle;
    w.energy = net.energy() - energy_start;
    w.ps_flits = net.ps_flits() - ps_start;
    w.cs_flits = net.cs_flits() - cs_start;
    w.config_flits = net.config_flits() - cfgf_start;
  }
  w.saturated = run.saturated;
  RunResult r =
      window_result(params, offered_rate, net.mesh().num_nodes(), w);
  r.avg_latency = lat.mean();
  r.p99_latency = hist.quantile(0.99);
  return r;
}

/// The synthetic workload as a run_cycle_measured generator.
auto synthetic_gen(const NocConfig& cfg, SyntheticTraffic& traffic) {
  return [&cfg, &traffic](Cycle, const auto& inject) {
    traffic.generate([&](NodeId src, NodeId dst) {
      inject(src, dst, cfg.ps_data_flits, /*cs_eligible=*/true);
    });
  };
}

// --- drained-run methodology (warmup checkpointing) ---

/// Archive section tag; bumped with any layout change so stale snapshot
/// files fail the section check instead of restoring garbage.
constexpr char kSnapshotSection[] = "warmup_snapshot_v2";

/// Outcome of the shared warmup phase: the warmed, drained (still frozen)
/// network plus the injection bookkeeping the measure phase continues from.
struct WarmState {
  std::unique_ptr<NetAdapter> net;
  RunState run;
  bool drained = false;
};

void check_snapshot_eligible(const NocConfig& cfg, const RunParams& params) {
  HN_CHECK_MSG(params.fidelity == Fidelity::Cycle,
               "warmup checkpoints are a cycle-core methodology");
  HN_CHECK_MSG(cfg.link_ber == 0.0 && cfg.tick_threads == 1,
               "warmup checkpoints require a fault-free serial network");
}

/// Warm under `traffic` until the standard warmup criterion, then freeze
/// policy and drain to quiescence. The warmup is run_cycle_measured's own,
/// stopped by a zero-packet window the moment the window would open.
WarmState warm_and_drain(const NocConfig& cfg, const RunParams& params,
                         SyntheticTraffic& traffic) {
  check_snapshot_eligible(cfg, params);
  WarmState st;
  st.net = make_network(cfg);
  Network* mesh_net = st.net->mesh_network_mut();
  HN_CHECK_MSG(mesh_net != nullptr,
               "warmup checkpoints require a mesh-backed architecture");
  RunParams warmup = params;
  warmup.measure_packets = 0;
  run_cycle_measured(*st.net, warmup, 0.0, synthetic_gen(cfg, traffic),
                     st.run);
  st.drained = mesh_net->drain(params.max_cycles);
  return st;
}

/// Measure from a warmed, drained network — the second half of the drained
/// methodology, shared by the in-place and the restored-snapshot paths so
/// the two are bit-identical by construction.
RunResult measure_warm(const NocConfig& cfg, const RunParams& params,
                       NetAdapter& net, SyntheticTraffic& traffic,
                       RunState run) {
  net.set_policy_frozen(false);
  run.warm = true;
  return run_cycle_measured(net, params, params.injection_rate,
                            synthetic_gen(cfg, traffic), run);
}

/// RunResult for a run whose warmup never reached a drainable steady state:
/// by definition the network cannot keep up with the offered load.
RunResult undrained_result(const RunParams& params) {
  RunResult r;
  r.offered_rate = params.injection_rate;
  r.saturated = true;
  return r;
}

}  // namespace

WarmupSnapshot warmup_snapshot(const NocConfig& cfg, const RunParams& params) {
  const Mesh mesh(cfg.k);
  SyntheticTraffic traffic(mesh, params.pattern, params.injection_rate,
                           cfg.ps_data_flits, params.seed);
  WarmState st = warm_and_drain(cfg, params, traffic);
  WarmupSnapshot out;
  out.saturated = st.run.saturated;
  if (!st.drained) return out;

  StateWriter w;
  w.section(kSnapshotSection);
  // Warmup-identity guard: restoring under a different warmup would be
  // silently wrong, so the relevant knobs are embedded and re-checked.
  // Measure-phase params are deliberately absent. (The network archive
  // inside guards the topology fields itself.)
  w.u8(static_cast<std::uint8_t>(cfg.arch));
  w.u8(static_cast<std::uint8_t>(params.pattern));
  w.f64(params.injection_rate);
  w.u64(params.warmup_packets);
  w.u64(params.warmup_min_cycles);
  w.u64(params.seed);
  w.u64(cfg.seed);
  w.i32(cfg.ps_data_flits);
  w.b(st.run.saturated);
  w.u64(st.run.next_id);
  for (const std::uint64_t word : traffic.rng_state()) w.u64(word);
  w.bytes(st.net->mesh_network_mut()->save_state());
  out.sealed = w.seal();
  out.ok = true;
  return out;
}

RunResult run_synthetic_from_snapshot(const NocConfig& cfg,
                                      const RunParams& params,
                                      const std::string& sealed) {
  check_snapshot_eligible(cfg, params);

  StateReader r(sealed);
  r.section(kSnapshotSection);
  const bool guards_match =
      r.u8() == static_cast<std::uint8_t>(cfg.arch) &&
      r.u8() == static_cast<std::uint8_t>(params.pattern) &&
      r.f64() == params.injection_rate &&
      r.u64() == params.warmup_packets &&
      r.u64() == params.warmup_min_cycles &&
      r.u64() == params.seed && r.u64() == cfg.seed &&
      r.i32() == cfg.ps_data_flits;
  if (!guards_match) {
    throw StateError("warmup snapshot belongs to a different cfg/params");
  }
  RunState run;
  run.saturated = r.b();
  run.next_id = r.u64();
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = r.u64();
  const std::string net_state = r.str();
  r.finish();

  auto net = make_network(cfg);
  Network* mesh_net = net->mesh_network_mut();
  HN_CHECK_MSG(mesh_net != nullptr,
               "warmup checkpoints require a mesh-backed architecture");
  mesh_net->restore_state(net_state);  // throws StateError on corruption

  const Mesh mesh(cfg.k);
  SyntheticTraffic traffic(mesh, params.pattern, params.injection_rate,
                           cfg.ps_data_flits, params.seed);
  traffic.set_rng_state(rng_state);
  return measure_warm(cfg, params, *net, traffic, run);
}

RunResult run_synthetic_drained(const NocConfig& cfg,
                                const RunParams& params) {
  const Mesh mesh(cfg.k);
  SyntheticTraffic traffic(mesh, params.pattern, params.injection_rate,
                           cfg.ps_data_flits, params.seed);
  WarmState st = warm_and_drain(cfg, params, traffic);
  if (!st.drained) return undrained_result(params);
  return measure_warm(cfg, params, *st.net, traffic, st.run);
}

RunResult run_synthetic(const NocConfig& cfg, const RunParams& params) {
  if (params.fidelity == Fidelity::Fast) return run_synthetic_fast(cfg, params);
  const Mesh mesh(cfg.k);
  SyntheticTraffic traffic(mesh, params.pattern, params.injection_rate,
                           cfg.ps_data_flits, params.seed);
  auto net = make_network(cfg);
  RunState run;
  return run_cycle_measured(*net, params, params.injection_rate,
                            synthetic_gen(cfg, traffic), run);
}

RunResult run_trace(const NocConfig& cfg,
                    const std::vector<TraceEntry>& entries,
                    const RunParams& params) {
  const int n_nodes = cfg.num_nodes();
  check_trace(entries, n_nodes);
  std::uint64_t total_flits = 0;
  for (const TraceEntry& e : entries)
    total_flits += static_cast<std::uint64_t>(e.flits);
  const Cycle span = entries.back().cycle + 1;
  const double offered_rate =
      static_cast<double>(total_flits) /
      (static_cast<double>(span) * static_cast<double>(n_nodes));

  if (params.fidelity == Fidelity::Fast) {
    RunResult r = run_trace_fast(cfg, entries, params);
    r.offered_rate = offered_rate;  // finalize() reports injection_rate
    return r;
  }

  TraceTraffic traffic(entries, /*loop=*/true);
  auto net = make_network(cfg);
  RunState run;
  return run_cycle_measured(
      *net, params, offered_rate,
      [&](Cycle now, const auto& inject) {
        traffic.generate(now, [&](NodeId src, NodeId dst, int flits) {
          inject(src, dst, flits, circuit_eligible(cfg, flits));
        });
      },
      run);
}

std::vector<RunResult> sweep_load(const NocConfig& cfg, RunParams params,
                                  const std::vector<double>& rates) {
  std::vector<RunResult> out;
  int saturated_in_a_row = 0;
  for (const double rate : rates) {
    params.injection_rate = rate;
    out.push_back(run_synthetic(cfg, params));
    saturated_in_a_row = out.back().saturated ? saturated_in_a_row + 1 : 0;
    if (saturated_in_a_row >= 2) break;
  }
  return out;
}

double saturation_throughput(const NocConfig& cfg, RunParams params,
                             double start_rate, double step, double max_rate) {
  double best_accepted = 0.0;
  int saturated_in_a_row = 0;
  for (double rate = start_rate; rate <= max_rate; rate += step) {
    params.injection_rate = rate;
    const RunResult r = run_synthetic(cfg, params);
    best_accepted = std::max(best_accepted, r.accepted_rate);
    saturated_in_a_row = r.saturated ? saturated_in_a_row + 1 : 0;
    if (saturated_in_a_row >= 2) break;
  }
  return best_accepted;
}

}  // namespace hybridnoc
