// Steady-state zero-allocation gate for the loaded path (label: perf).
//
// The allocation-free overhaul's claim is structural, not statistical: after
// warmup, a loaded cycle moves flits exclusively through recycled storage —
// ring buffers at their high-water capacity, pooled packet blocks, pooled
// container nodes — so the global allocator is never entered. This binary
// pins that down by interposing the global operator new/delete with a
// counting hook and asserting the count's delta over a measured window of
// warmed saturation traffic is exactly zero. The same hook sums the bytes
// requested, which bounds how the fast model's heap grows with mesh size.
//
// The hook lives in this dedicated test binary (never in the library) so it
// cannot perturb any other test. Under sanitizer builds (HN_POOL_DISABLED)
// the pool intentionally degrades to plain new/delete for full poisoning
// coverage, so the zero-allocation assertion is skipped there — the same
// configuration's behavioural equivalence is covered by the pool twin-run
// property test, which runs in every build flavour.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#ifdef HN_TRACE_ALLOCS
#include <execinfo.h>
#endif

#include "common/pool.hpp"
#include "common/rng.hpp"
#include "fastmodel/fast_model.hpp"
#include "tdm/hybrid_network.hpp"
#include "tdm/slot_table.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_live{0};  ///< bytes held now (usable sizes)
std::atomic<std::uint64_t> g_peak{0};  ///< high-water mark of g_live
std::atomic<bool> g_trace{false};

}  // namespace

#if !HN_POOL_DISABLED
namespace {

void count(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
}

void* hold(void* p) {
  if (p == nullptr) return p;
  const std::uint64_t live =
      g_live.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) +
      malloc_usable_size(p);
  if (live > g_peak.load(std::memory_order_relaxed))
    g_peak.store(live, std::memory_order_relaxed);
  return p;
}

void release(void* p) noexcept {
  if (p != nullptr)
    g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* counted_alloc(std::size_t n) {
  count(n);
#ifdef HN_TRACE_ALLOCS
  if (g_trace.load(std::memory_order_relaxed)) {
    g_trace.store(false);
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, 2);
    g_trace.store(true);
  }
#endif
  if (void* p = std::malloc(n ? n : 1)) return hold(p);
  throw std::bad_alloc();
}

}  // namespace

// Global replacement set: plain, array, aligned and nothrow forms all funnel
// through the counter. Sanitizer builds keep the sanitizer's own interposers
// (and skip the assertion), so the override is compiled out there.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count(n);
  return hold(std::malloc(n ? n : 1));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count(n);
  return hold(std::malloc(n ? n : 1));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
#endif  // !HN_POOL_DISABLED

namespace hybridnoc {
namespace {

/// Drive `net` with seeded uniform-random injection for `cycles` cycles —
/// the same loaded regime as BM_LoadedSaturation's 8x8 row.
template <typename Net>
void drive(Net& net, Rng& rng, PacketId& id, double rate, Cycle cycles) {
  const Cycle until = net.now() + cycles;
  while (net.now() < until) {
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
    net.tick();
  }
}

TEST(ZeroAlloc, WarmedLoadedRunMakesNoHeapAllocations) {
#if HN_POOL_DISABLED
  GTEST_SKIP() << "pool disabled under sanitizers: the shared_ptr-compatible "
                  "fallback allocates by design";
#else
  ASSERT_TRUE(BlockPool::enabled())
      << "pool must be on for the zero-allocation property";
  HybridNetwork net(NocConfig::hybrid_tdm_vc4(8));
  Rng rng(1);
  PacketId id = 1;
  // Warmup: reach every steady-state high-water mark — ring capacities,
  // pooled free lists, container rehash ceilings, scheduler storage. The
  // run is seeded and fully deterministic, so the high-water trajectory is
  // identical on every execution; 40k cycles sits past the last observed
  // growth event (an NI inject-ring doubling during a config-retry burst
  // near cycle 33k) with a wide margin.
  drive(net, rng, id, 0.3, 40000);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  g_trace.store(true);
  drive(net, rng, id, 0.3, 4000);
  g_trace.store(false);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "warmed loaded cycles entered the global allocator "
      << (after - before) << " times over 4000 cycles";
#endif
}

/// The pool's runtime off-switch is the sanitizer fallback path; prove a
/// loaded run completes on it in every build flavour (under asan this is
/// the leg that exercises the shared_ptr-compatible fallback explicitly).
TEST(ZeroAlloc, PoolOffFallbackCarriesLoadedTraffic) {
  BlockPool::set_enabled(false);
  BlockPool::instance().trim();
  {
    HybridNetwork net(NocConfig::hybrid_tdm_vc4(8));
    Rng rng(1);
    PacketId id = 1;
    drive(net, rng, id, 0.3, 5000);
    EXPECT_GT(net.ni_counters()[NiCounter::DataPacketsDelivered], 0u);
  }
  BlockPool::set_enabled(true);
}

/// A slot-table entry is a valid bit plus an output port (Section II), and
/// only a valid entry holds a lease (owner, stamp). A table stores entries
/// only once it holds a reservation: constructing one requests no heap
/// bytes, and the first reserve() requests the port byte and the 16-bit
/// lease handle of every (input port, slot) cell plus one 24-byte lease
/// (owner, stamp and its cell). Every router and the fast model build one
/// table per node, so this bounds both fidelities' largest array, and keeps
/// it at zero on routers that never carry a circuit.
TEST(ZeroAlloc, SlotTableBytesPerEntry) {
#if HN_POOL_DISABLED
  GTEST_SKIP() << "pool disabled under sanitizers: the counting hook is "
                  "compiled out";
#else
  constexpr std::uint64_t kSlots = 256;
  constexpr std::uint64_t kEntries = kNumPorts * kSlots;
  constexpr std::uint64_t kLeaseBytes = 24;
  std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  SlotTable table(static_cast<int>(kSlots), static_cast<int>(kSlots));
  EXPECT_EQ(g_bytes.load(std::memory_order_relaxed) - before, 0u)
      << "constructing a table allocated";
  EXPECT_EQ(table.storage_bytes(), 0u);

  before = g_bytes.load(std::memory_order_relaxed);
  ASSERT_TRUE(table.reserve(0, 1, Port::West, Port::East, 1, 0));
  const std::uint64_t requested =
      g_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LE(requested, kEntries * 4 + kLeaseBytes)
      << "bytes per entry: " << static_cast<double>(requested) / kEntries;
  EXPECT_EQ(table.storage_bytes(), kEntries * 3 + kLeaseBytes);
#endif
}

/// A run that never sets up a circuit never reserves a slot, so no slot
/// table may hold entry storage: uniform random at a low rate on a 16x16
/// Hybrid-TDM mesh never repeats a pair often enough to request a setup.
TEST(ZeroAlloc, CircuitFreeRunAllocatesNoSlotTables) {
  HybridNetwork net(NocConfig::hybrid_tdm_vc4(16));
  Rng rng(1);
  PacketId id = 1;
  drive(net, rng, id, 0.002, 5000);
  ASSERT_GT(net.ni_counters()[NiCounter::DataPacketsDelivered], 0u);
  ASSERT_EQ(net.ni_counters()[NiCounter::SetupsSent], 0u)
      << "the run set up circuits";
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    ASSERT_EQ(net.hybrid_router(n).slots().storage_bytes(), 0u)
        << "router " << n;
  }
}

// Six credit wires sit in every node's channel block. Each is two (ready
// cycle, VC mask) pairs, a staged pair and its consumer links: 80 bytes on
// LP64, where a general Channel<Credit> took 168.
static_assert(sizeof(CreditWire) <= 80, "a credit wire grew");
static_assert(sizeof(CreditWire) < sizeof(FlitChannel) / 2,
              "a credit wire should cost well under a flit channel");

/// What one mesh node of a freshly built 32x32 Hybrid-TDM network with a
/// delivery handler installed costs on the heap: its router, NI, channel
/// block and the router's VC-state block, plus a 1024th of the network-wide
/// tables and of the handler. A node shares the network's config and
/// delivery handler, returns credits on an 80-byte wire, and allocates its
/// DLT, VC buffers and slot-table entries on first use, so none of those
/// count here.
/// The bound is the measured figure plus 5%: a later change that grows every
/// node fails here, on any host, before it shows as peak RSS.
TEST(ZeroAlloc, MeshNodeBytesRequested) {
#if HN_POOL_DISABLED
  GTEST_SKIP() << "pool disabled under sanitizers: the counting hook is "
                  "compiled out";
#else
  constexpr int kK = 32;
  constexpr double kMeasuredBytesPerNode = 3761;
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  HybridNetwork net(NocConfig::hybrid_tdm_vc4(kK));
  // Three captured references: too large for std::function's inline buffer.
  std::uint64_t packets = 0, last = 0, first = 0;
  net.set_deliver_handler([&packets, &last, &first](const PacketPtr&, Cycle at) {
    ++packets;
    last = at;
    if (first == 0) first = at;
  });
  const double per_node =
      static_cast<double>(g_bytes.load(std::memory_order_relaxed) - before) / (kK * kK);
  EXPECT_LE(per_node, 1.05 * kMeasuredBytesPerNode) << "heap bytes requested per node";
#endif
}

#if !HN_POOL_DISABLED
/// Hybrid-TDM, uniform random at 0.05, 1000 warmup packets, seed 1.
RunParams fast_run_params(std::uint64_t measure_packets) {
  RunParams p;
  p.pattern = TrafficPattern::UniformRandom;
  p.injection_rate = 0.05;
  p.warmup_packets = 1000;
  p.measure_packets = measure_packets;
  p.seed = 1;
  return p;
}

/// Heap bytes one fast-model run of 20000 measured packets requests per
/// mesh node.
double fast_run_bytes_per_node(int k) {
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  (void)run_synthetic_fast(NocConfig::hybrid_tdm_vc4(k), fast_run_params(20000));
  const std::uint64_t after = g_bytes.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / static_cast<double>(k * k);
}

/// The most heap one fast-model run holds at any moment, above what was
/// held before it started.
double fast_run_peak_bytes(int k, std::uint64_t measure_packets) {
  const std::uint64_t base = g_live.load(std::memory_order_relaxed);
  g_peak.store(base, std::memory_order_relaxed);
  (void)run_synthetic_fast(NocConfig::hybrid_tdm_vc4(k),
                           fast_run_params(measure_packets));
  return static_cast<double>(g_peak.load(std::memory_order_relaxed) - base);
}
#endif  // !HN_POOL_DISABLED

/// The fast model's state is O(nodes): quadrupling the node count must not
/// grow the heap per node by more than half (per-pair tables would double it).
TEST(ZeroAlloc, FastModelHeapPerNodeStaysFlat) {
#if HN_POOL_DISABLED
  GTEST_SKIP() << "pool disabled under sanitizers: the counting hook is "
                  "compiled out";
#else
  const double k16 = fast_run_bytes_per_node(16);
  const double k32 = fast_run_bytes_per_node(32);
  EXPECT_LE(k32, 1.5 * k16) << "heap bytes per node: " << k16 / 1024
                            << " KiB at 16x16, " << k32 / 1024
                            << " KiB at 32x32";
#endif
}

/// Nor does it grow with run length. In perfbench's fast_ur32 shape (32x32,
/// 1M measured packets) the peak heap may exceed a 20000-packet run's by at
/// most 10%; keeping 8 bytes per packet, or an entry per destination each
/// node ever used, would exceed that.
TEST(ZeroAlloc, FastModelPeakHeapFlatInRunLength) {
#if HN_POOL_DISABLED
  GTEST_SKIP() << "pool disabled under sanitizers: the counting hook is "
                  "compiled out";
#else
  const double short_run = fast_run_peak_bytes(32, 20000);
  const double long_run = fast_run_peak_bytes(32, 1000000);
  EXPECT_LE(long_run, 1.1 * short_run)
      << "peak heap at 32x32: " << short_run / 1024 << " KiB over 20000 "
      << "packets, " << long_run / 1024 << " KiB over 1000000";
#endif
}

}  // namespace
}  // namespace hybridnoc
