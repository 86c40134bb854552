// The tick engine's own bookkeeping: the dispatch counters that
// Network::tick_profile() reports, and the threads the engine starts.
//
// The counters are what perfbench's non-vacuity checks and tools/profile_tick
// read, and no equivalence suite compares them (those compare simulated
// state, which a counter that stopped counting would not move). The pinned
// record below was taken at tick_threads = 1 and must not drift; a sharded
// run dispatches the same components on the same cycles, so its total must
// match the one-shard total exactly.
//
// Regenerating after an intentional change to the scheduler's dispatch
// policy: run build/tests/test_properties --gtest_filter='TickEngine.*',
// copy the actual values the failures print into kPinned, and say in the
// change description why the dispatch count moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <thread>

#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"

namespace hybridnoc {
namespace {

/// Seeded uniform-random 5-flit packets every cycle until `until`.
void drive_uniform(HybridNetwork& net, double rate, std::uint64_t seed,
                   Cycle until) {
  SyntheticTraffic traffic(net.mesh(), TrafficPattern::UniformRandom, rate, 5,
                           seed);
  PacketId next_id = 1;
  while (net.now() < until) {
    traffic.generate([&](NodeId src, NodeId dst) {
      auto p = std::make_shared<Packet>();
      p->id = next_id++;
      p->src = src;
      p->dst = dst;
      p->num_flits = 5;
      net.ni(src).send(std::move(p), net.now());
    });
    net.tick();
  }
}

/// Seeded 6x6 Hybrid-TDM load for 4000 cycles, then a fast-forward over the
/// drain so the jump counters move too.
TickProfile run_tdm(int threads) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(6);
  cfg.tick_threads = threads;
  HybridNetwork net(cfg);
  drive_uniform(net, 0.08, 17, 4000);
  net.fast_forward(60000);
  return net.tick_profile();
}

TEST(TickEngine, SerialTdmDispatchCountsPinned) {
  struct Pinned {
    std::uint64_t cycles, ni_ticks, router_ticks, ff_jumps, ff_skipped_cycles;
  };
  constexpr Pinned kPinned{4051, 45390, 104470, 2, 55949};
  const TickProfile p = run_tdm(1);
  EXPECT_EQ(p.cycles, kPinned.cycles);
  EXPECT_EQ(p.ni_ticks, kPinned.ni_ticks);
  EXPECT_EQ(p.router_ticks, kPinned.router_ticks);
  EXPECT_EQ(p.ff_jumps, kPinned.ff_jumps);
  EXPECT_EQ(p.ff_skipped_cycles, kPinned.ff_skipped_cycles);
  // Non-vacuity: idle components were skipped, busy ones were not.
  EXPECT_GT(p.ni_ticks + p.router_ticks, 0u);
  EXPECT_LT(p.ni_ticks + p.router_ticks, 2u * 36u * p.cycles);
}

TEST(TickEngine, ShardedRunsDispatchTheSerialTotal) {
  const TickProfile one = run_tdm(1);
  for (const int threads : {2, 4}) {
    const TickProfile p = run_tdm(threads);
    EXPECT_EQ(p.cycles, one.cycles) << threads << " threads";
    EXPECT_EQ(p.ni_ticks + p.router_ticks, one.ni_ticks + one.router_ticks)
        << threads << " threads";
  }
}

/// Threads of this process, as the kernel lists them.
long thread_count() {
  const std::filesystem::directory_iterator it("/proc/self/task");
  return std::distance(begin(it), end(it));
}

/// Threads a loaded `threads`-way network adds by the time it has run.
long threads_started(int threads) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  cfg.tick_threads = threads;
  // The thread sanitizer's runtime starts a helper thread along with the
  // process's first extra one; start and join a thread first so `before`
  // already counts it.
  std::thread([] {}).join();
  const long before = thread_count();
  HybridNetwork net(cfg);
  drive_uniform(net, 0.1, 3, 500);
  EXPECT_GT(net.ni_counters()[NiCounter::DataPacketsDelivered], 0u);
  return thread_count() - before;
}

TEST(TickEngineThread, OneShardStartsNoThread) {
  EXPECT_EQ(threads_started(1), 0);
}

TEST(TickEngineThread, TwoShardsStartOneWorker) {
  EXPECT_EQ(threads_started(2), 1);
}

}  // namespace
}  // namespace hybridnoc
