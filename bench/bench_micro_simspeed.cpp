// Simulator micro-benchmarks (google-benchmark): raw component speeds that
// bound every experiment's wall-clock time.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "common/pool.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sim/driver.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"
#include "tdm/hybrid_network.hpp"
#include "tdm/slot_table.hpp"
#include "workloads/workload.hpp"

namespace hybridnoc {
namespace {

void BM_SlotTableLookup(benchmark::State& state) {
  SlotTable t(128, 128);
  t.reserve(5, 4, Port::West, Port::East);
  Cycle c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(c++, Port::West));
  }
}
BENCHMARK(BM_SlotTableLookup);

void BM_SlotTableReserveRelease(benchmark::State& state) {
  SlotTable t(128, 128);
  int slot = 0;
  for (auto _ : state) {
    t.reserve(slot, 4, Port::West, Port::East);
    t.release(slot, 4, Port::West);
    slot = (slot + 8) & 127;
  }
}
BENCHMARK(BM_SlotTableReserveRelease);

/// Drive `net` for the benchmark loop at the per-node injection probability
/// per cycle that benchmark argument `arg` gives in permille.
/// items_per_second is node-cycles per wall second.
template <typename Net>
void run_injected_cycles(Net& net, benchmark::State& state, int arg) {
  const double rate = static_cast<double>(state.range(arg)) / 1000.0;
  Rng rng(1);
  PacketId id = 1;
  for (auto _ : state) {
    if (rate > 0.0) {
      for (NodeId s = 0; s < net.num_nodes(); ++s) {
        if (net.ni(s).inject_queue_depth() < 4 && rng.bernoulli(rate)) {
          auto p = make_packet();
          p->id = id++;
          p->src = s;
          p->dst = static_cast<NodeId>(rng.uniform_int(net.num_nodes()));
          if (p->dst == s) continue;
          p->num_flits = 5;
          net.ni(s).send(std::move(p), net.now());
        }
      }
    }
    net.tick();
  }
  state.SetItemsProcessed(state.iterations() * net.num_nodes());
}

void BM_IdleNetworkCycle(benchmark::State& state) {
  Network net(NocConfig::packet_vc4(6));
  for (auto _ : state) net.tick();
  state.SetItemsProcessed(state.iterations() * 36);
}
BENCHMARK(BM_IdleNetworkCycle);

/// The argument is the injection permille: 40 is the historical
/// near-saturation point; 5 is the sparse regime (most components idle most
/// cycles) the active-set engine targets.
void BM_LoadedNetworkCycle(benchmark::State& state) {
  Network net(NocConfig::packet_vc4(6));
  run_injected_cycles(net, state, 0);
}
BENCHMARK(BM_LoadedNetworkCycle)->Arg(40)->Arg(5);

void BM_HybridNetworkCycle(benchmark::State& state) {
  HybridNetwork net(NocConfig::hybrid_tdm_vc4(6));
  run_injected_cycles(net, state, 0);
}
BENCHMARK(BM_HybridNetworkCycle)->Arg(40)->Arg(5);

/// Thread scaling of the sharded parallel tick engine: 8x8 mesh near
/// saturation (0.30 injection probability per node per cycle), cycle
/// throughput at 1 / 2 / 4 tick threads. items_per_second here is
/// node-cycles per wall second; divide by 64 for cycles/sec. The 1-thread
/// row runs the engine's one-shard case (no worker thread, barrier or
/// staging), so the 4-vs-1 ratio is the paper's speedup figure —
/// meaningful only on a machine with at least that many free cores.
void BM_ParallelLoadedCycle(benchmark::State& state) {
  NocConfig cfg = NocConfig::packet_vc4(8);
  cfg.tick_threads = static_cast<int>(state.range(0));
  Network net(cfg);
  run_injected_cycles(net, state, 1);
}
BENCHMARK(BM_ParallelLoadedCycle)
    ->Args({1, 300})
    ->Args({2, 300})
    ->Args({4, 300})
    ->UseRealTime();

void BM_ParallelHybridLoadedCycle(benchmark::State& state) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(8);
  cfg.tick_threads = static_cast<int>(state.range(0));
  HybridNetwork net(cfg);
  run_injected_cycles(net, state, 1);
}
BENCHMARK(BM_ParallelHybridLoadedCycle)
    ->Args({1, 300})
    ->Args({4, 300})
    ->UseRealTime();

/// Both fidelities of the full synthetic driver on the same workload:
/// hybrid-TDM 8x8 at 0.3 injection, uniform traffic. Warmup is zeroed so
/// RunResult.cycles counts every simulated cycle — items_per_second is then
/// directly "simulated cycles per wall second" for each engine, and the
/// BM_FastModelRun : BM_CycleCoreRun ratio is the fast model's speedup.
/// Each row is gated on its own absolute floor in BENCH_simspeed.json, not
/// on the ratio, which a faster cycle core would read as a slower fast
/// model. The fast side runs a longer window so its fixed construction cost
/// doesn't flatter the cycle side.
RunParams speedgate_params(std::uint64_t measure_packets) {
  RunParams p;
  p.pattern = TrafficPattern::UniformRandom;
  p.injection_rate = 0.3;
  p.warmup_packets = 0;
  p.warmup_min_cycles = 0;
  p.measure_packets = measure_packets;
  p.seed = 1;
  return p;
}

void BM_CycleCoreRun(benchmark::State& state) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(8);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const RunResult r = run_synthetic(cfg, speedgate_params(10000));
    benchmark::DoNotOptimize(r.avg_latency);
    cycles += r.cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_CycleCoreRun)->Unit(benchmark::kMillisecond);

void BM_FastModelRun(benchmark::State& state) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(8);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    RunParams p = speedgate_params(400000);
    p.fidelity = Fidelity::Fast;
    const RunResult r = run_synthetic(cfg, p);
    benchmark::DoNotOptimize(r.avg_latency);
    cycles += r.cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_FastModelRun)->Unit(benchmark::kMillisecond);

/// Workload-zoo replay speed: the cycle core running the generated traces
/// end to end (trace build cost included once, outside the timed loop).
/// items_per_second is simulated cycles per wall second, comparable to
/// BM_CycleCoreRun — the gap between them is what trace replay (mixed
/// message sizes, looped injection schedule) costs over synthetic injection.
void BM_NNDataflowRun(benchmark::State& state) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(8);
  WorkloadOptions wo;
  wo.k = 8;
  const WorkloadTrace wt = build_workload("nn:resnet50", wo);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    RunParams p = speedgate_params(6000);
    const RunResult r = run_trace(cfg, wt.entries, p);
    benchmark::DoNotOptimize(r.avg_latency);
    cycles += r.cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_NNDataflowRun)->Unit(benchmark::kMillisecond);

void BM_CoherenceRun(benchmark::State& state) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(8);
  WorkloadOptions wo;
  wo.k = 8;
  const WorkloadTrace wt = build_workload("coherence", wo);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    RunParams p = speedgate_params(6000);
    const RunResult r = run_trace(cfg, wt.entries, p);
    benchmark::DoNotOptimize(r.avg_latency);
    cycles += r.cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_CoherenceRun)->Unit(benchmark::kMillisecond);

/// Large-mesh scaling: the ISSUE's tentpole deliverable. Args are
/// {k, tick_threads, injection permille}; items_per_second is node-cycles
/// per wall second, so equal values across mesh sizes mean perfectly linear
/// scaling and HIGHER values at larger k mean the per-cycle cost grows
/// sublinearly in node count (idle rows should: the run-list scheduler makes
/// an idle cycle O(active), not O(nodes)). The 8x8 idle row is the
/// reference point for the "64x64 idle within 4x of 8x8" acceptance bound —
/// compare their per-CYCLE costs, i.e. items_per_second scaled by nodes.
/// Rows: idle (0), sparse (5 permille), loaded (100 permille), the loaded
/// pair serial vs 4 tick threads.
void BM_LargeMeshCycle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  NocConfig cfg = NocConfig::packet_vc4(k);
  cfg.tick_threads = static_cast<int>(state.range(1));
  Network net(cfg);
  run_injected_cycles(net, state, 2);
}
BENCHMARK(BM_LargeMeshCycle)
    ->Args({8, 1, 0})
    ->Args({8, 1, 100})
    ->Args({32, 1, 0})
    ->Args({32, 1, 5})
    ->Args({32, 1, 100})
    ->Args({32, 4, 100})
    ->Args({64, 1, 0})
    ->Args({64, 1, 5})
    ->Args({64, 1, 100})
    ->Args({64, 4, 100})
    ->UseRealTime();

/// Loaded-path saturation throughput: the allocation-free flit-movement
/// overhaul's acceptance scenarios, on the hybrid-TDM fabric the paper
/// models. Args are {k, tick_threads, injection permille}: an 8x8 mesh at
/// 0.30 injection probability per node per cycle (past saturation — every
/// pipeline stage busy, CS setup churn, e2e bookkeeping live) and a 64x64
/// mesh at 0.10, each serial and with 4 tick threads. items_per_second is
/// node-cycles per wall second; divide by k*k for cycles/sec. These rows are
/// what the >=1.5x loaded-path acceptance target is measured on, and the
/// 20% regression gate keeps them from backsliding.
void BM_LoadedSaturation(benchmark::State& state) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(static_cast<int>(state.range(0)));
  cfg.tick_threads = static_cast<int>(state.range(1));
  HybridNetwork net(cfg);
  run_injected_cycles(net, state, 2);
}
BENCHMARK(BM_LoadedSaturation)
    ->Args({8, 1, 300})
    ->Args({8, 4, 300})
    ->Args({64, 1, 100})
    ->Args({64, 4, 100})
    ->UseRealTime();

/// Sweep-orchestrator overhead on the all-cache-hits path: a resumed sweep
/// whose every point is already in the result store. Times spec expansion +
/// journal replay + integrity-checked (digest-verified) cache loads +
/// aggregate formatting — everything the orchestrator adds around the
/// simulator — with zero simulation in the loop. items_per_second is sweep
/// points resolved per wall second. The first run (which simulates) happens
/// once, outside the timed loop.
void BM_SweepCachedResume(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "hn_bench_sweep").string();
  fs::remove_all(dir);
  sweep::SweepSpec spec;
  sweep::SpecError serr;
  const bool parsed = sweep::parse_sweep_spec(
      "name = bench\n"
      "set k = 4\n"
      "set warmup_packets = 30\n"
      "set warmup_min_cycles = 100\n"
      "set measure_packets = 60\n"
      "set max_cycles = 40000\n"
      "sweep preset = packet_vc4, hybrid_tdm_vc4\n"
      "sweep rate = 0.02, 0.04, 0.06, 0.08\n",
      &spec, &serr);
  if (!parsed) {
    state.SkipWithError(serr.to_string().c_str());
    return;
  }
  sweep::SweepOptions opt;
  opt.out_dir = dir;
  opt.workers = 2;
  sweep::run_sweep(spec, opt);  // populate the store once, untimed
  std::uint64_t points = 0;
  for (auto _ : state) {
    const sweep::SweepReport rep = sweep::run_sweep(spec, opt);
    benchmark::DoNotOptimize(rep.degradation.cache_hits);
    points += static_cast<std::uint64_t>(rep.degradation.points);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(points));
  fs::remove_all(dir);
}
BENCHMARK(BM_SweepCachedResume)->Unit(benchmark::kMillisecond);

void BM_IdleFastForward(benchmark::State& state) {
  // Whole-window skip: what an idle stretch costs when the driver may jump
  // instead of ticking cycle by cycle.
  Network net(NocConfig::packet_vc4(6));
  for (auto _ : state) net.fast_forward(net.now() + 4096);
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_IdleFastForward);

}  // namespace
}  // namespace hybridnoc

BENCHMARK_MAIN();
