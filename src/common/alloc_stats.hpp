// Process-wide allocation / packet-lifetime telemetry. The counters make the
// "allocation-free, refcount-free" property of the loaded path measurable:
// tools/profile_tick surfaces them per run and the steady-state
// zero-allocation test asserts the heap side directly.
//
// All counters are relaxed atomics — they are statistics, not
// synchronization, and every writer is already ordered by the structures it
// touches (the pool mutex, the shard barriers).
#pragma once

#include <atomic>
#include <cstdint>

namespace hybridnoc {

struct AllocStats {
  /// Packets minted through make_packet (injection, clones, acks).
  std::atomic<std::uint64_t> packets_minted{0};
  /// Pooled allocations served from a free list vs falling through to
  /// operator new (misses include first-touch warmup and >1 KiB blocks).
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> pool_misses{0};
  /// Packet flight-anchor acquire/release pairs: the total shared_ptr
  /// refcount traffic of the flit path, now two ops per packet instead of
  /// two per flit copy.
  std::atomic<std::uint64_t> flight_acquires{0};
  std::atomic<std::uint64_t> flight_releases{0};

  static AllocStats& instance() {
    static AllocStats s;
    return s;
  }

  struct Snapshot {
    std::uint64_t packets_minted = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
    std::uint64_t flight_acquires = 0;
    std::uint64_t flight_releases = 0;
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.packets_minted = packets_minted.load(std::memory_order_relaxed);
    s.pool_hits = pool_hits.load(std::memory_order_relaxed);
    s.pool_misses = pool_misses.load(std::memory_order_relaxed);
    s.flight_acquires = flight_acquires.load(std::memory_order_relaxed);
    s.flight_releases = flight_releases.load(std::memory_order_relaxed);
    return s;
  }
};

inline void alloc_stats_bump(std::atomic<std::uint64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace hybridnoc
