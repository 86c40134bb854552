#include "sim/driver.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/pool.hpp"
#include "fastmodel/fast_model.hpp"
#include "tdm/switching_policy.hpp"

namespace hybridnoc {

namespace {

/// The cycle core's warmup/measure/saturation loop. `gen(now, inject)` is
/// called once per cycle and emits that cycle's injections via
/// inject(src, dst, flits, cs_eligible).
template <typename GenerateFn>
RunResult run_cycle_measured(NetAdapter& net, const RunParams& params,
                             double offered_rate, GenerateFn&& gen) {
  PacketId next_id = 1;
  bool saturated = false;  // source queues diverged
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
      saturated = true;  // source queues diverging: deep saturation
      return;
    }
    if (measuring) w.generated_flits += static_cast<std::uint64_t>(flits);
    auto p = make_packet();
    p->id = next_id++;
    p->src = src;
    p->dst = dst;
    p->num_flits = flits;
    p->cs_eligible = cs_eligible;
    payload_flits.emplace(p->id, flits);
    net.send(std::move(p));
  };

  while (net.now() < params.max_cycles) {
    if (!measuring && delivered_total >= params.warmup_packets &&
        net.now() >= params.warmup_min_cycles) {
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
      saturated = true;
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
  w.saturated = saturated;
  RunResult r =
      window_result(params, offered_rate, net.mesh().num_nodes(), w);
  r.avg_latency = lat.mean();
  r.p99_latency = hist.quantile(0.99);
  return r;
}

}  // namespace

RunResult run_synthetic(const NocConfig& cfg, const RunParams& params) {
  if (params.fidelity == Fidelity::Fast) return run_synthetic_fast(cfg, params);
  const Mesh mesh(cfg.k);
  SyntheticTraffic traffic(mesh, params.pattern, params.injection_rate,
                           cfg.ps_data_flits, params.seed);
  auto net = make_network(cfg);
  return run_cycle_measured(
      *net, params, params.injection_rate, [&](Cycle, const auto& inject) {
        traffic.generate([&](NodeId src, NodeId dst) {
          inject(src, dst, cfg.ps_data_flits, /*cs_eligible=*/true);
        });
      });
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
  return run_cycle_measured(
      *net, params, offered_rate,
      [&](Cycle now, const auto& inject) {
        traffic.generate(now, [&](NodeId src, NodeId dst, int flits) {
          inject(src, dst, flits, circuit_eligible(cfg, flits));
        });
      });
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
