// Deterministic sharded tick engine: the one engine behind Network::tick,
// for every NocConfig::tick_threads >= 1.
//
// The mesh is partitioned into contiguous spatial shards — whole rows per
// shard when shards <= k (so only North/South links cross a seam), the plain
// node-range split [s*N/S, (s+1)*N/S) otherwise; NI n and router n always
// land together — with one worker thread per shard (the caller's thread
// doubles as shard 0). A cycle runs in two phases:
//
//   compute: every shard ticks its own components against last cycle's
//            channel state. Sends into a channel whose consumer lives in
//            another shard are *staged* into a producer-private outbox
//            (ChannelBase::set_staged); everything else is eager.
//   barrier
//   commit:  every shard applies the staged outboxes of the channels it
//            consumes, in the fixed channel-construction order, then runs
//            its TickScheduler compaction.
//   barrier
//
// One shard (tick_threads == 1) is the serial engine: the shard owns every
// node, so no channel crosses a seam and none is staged, no worker thread is
// started, NI deliveries are handed to the deliver callback in place, and a
// cycle is the shard's sweep then its compaction on the caller's thread —
// after an inline "nothing active" test, so an idle cycle costs a few loads.
// Its sweep visits every NI ascending then every router ascending, the exact
// global order, which the full-sweep test oracle checks it against.
//
// Bit-identity with the one-shard engine for ANY thread count rests on:
//  * every cross-component write goes through a Channel with latency >= 1,
//    so nothing written in cycle T is readable before T+1 — the intra-cycle
//    tick order is unobservable (the simulator's founding invariant);
//  * each channel has exactly one producer and one consumer, so its queue
//    contents are independent of the order channels commit in; consumer
//    wake-ups dedup in the scheduler heap, so wake order is irrelevant too;
//  * shared counters crossed by shard threads (TDM controller in-flight
//    gauges, fault-model corruption count) are relaxed atomics — addition
//    commutes, the sums are exact;
//  * data-plane fault decisions are stateless hashes of (seed, link,
//    traversal count), and each directed link is traversed by exactly one
//    upstream router, so decisions don't depend on interleaving;
//  * the FaultModel's lazy topology caches are precomputed serially each
//    cycle (FaultModel::prepare), making health queries pure reads;
//  * the NI deliver callback — the one externally shared handler — is
//    staged per-NI and drained in ascending NI order after the barrier.
//
// Modes whose *event order* is observable (config-fault injection hooks,
// fault-trace recording) force a multi-shard engine into a serial fallback
// that walks the exact global component order of the one-shard engine, so
// recorded traces and seeded fault streams stay byte-identical.
//
// Workers synchronise on a go-sequence (spin-then-park between cycles, so an
// idle or fast-forwarding simulation doesn't burn cores) and two
// sense-reversing spin barriers inside the cycle.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "noc/channel.hpp"
#include "noc/scheduler.hpp"

namespace hybridnoc {

class Network;
class NetworkInterface;
struct TickProfile;

class ParallelTickEngine {
 public:
  /// Shards = min(threads, nodes), threads >= 1. The engine must be
  /// constructed before the network wires its channels (they register
  /// consumers against the shard schedulers) and destroyed before the
  /// components it ticks.
  ParallelTickEngine(Network& net, int threads);
  ~ParallelTickEngine();

  ParallelTickEngine(const ParallelTickEngine&) = delete;
  ParallelTickEngine& operator=(const ParallelTickEngine&) = delete;

  int num_shards() const { return num_shards_; }

  /// Scheduler that owns component `id` (NIs are [0, N), routers [N, 2N)).
  TickScheduler* sched_for(int id) {
    return &shards_[static_cast<size_t>(shard_of(id))].sched;
  }

  /// Called during network wiring for every mesh-link channel: marks the
  /// channel staged when producer and consumer components live in different
  /// shards and adds it to the consumer shard's commit list. Same-shard
  /// channels stay eager.
  void register_link_channel(ChannelBase* ch, int producer_id,
                             int consumer_id);

  /// Execute component cycle `now` (the network still owns watchdog sweeps,
  /// clock advance, and any controller machinery around it). The one-shard
  /// idle test stays inline so an idle cycle makes no call at all.
  void run_cycle(Cycle now) {
    if (num_shards_ == 1) {
      TickScheduler& sched = shards_.front().sched;
      sched.begin_cycle(now);
      if (sched.anything_active()) run_one_shard(now);
      return;
    }
    run_sharded(now);
  }

  /// Is every component idle at cycle `now`? One pass over the shards
  /// promotes the wakes due by `now` and, when nothing is active, leaves
  /// the earliest pending wake in `*next_wake` (kCycleNever if none) — the
  /// fast-forward jump target. Inline for one shard, like run_cycle.
  bool idle_at(Cycle now, Cycle* next_wake) {
    if (num_shards_ == 1) {
      TickScheduler& sched = shards_.front().sched;
      sched.begin_cycle(now);
      if (sched.anything_active()) return false;
      *next_wake = sched.next_wake_cycle();
      return true;
    }
    return idle_at_sharded(now, next_wake);
  }

  /// Serial-fallback switch for order-observing modes (see file comment).
  /// One shard already runs in the global order, so it ignores the switch.
  void set_force_serial(bool on) { force_serial_ = on; }

  /// Fold the per-shard dispatch counters into `p` (Network::tick_profile).
  void accumulate_profile(TickProfile& p) const;

 private:
  struct Shard {
    int node_lo = 0;
    int node_hi = 0;
    TickScheduler sched;
    /// Staged channels this shard consumes, in construction order.
    std::vector<ChannelBase*> commit_list;
    /// NIs of this shard that staged a delivery this cycle, in ascending
    /// id order (the order the sweep ticks them).
    std::vector<NetworkInterface*> delivering;
    /// Dispatch counters, written only by the owning worker thread.
    std::uint64_t ni_ticks = 0;
    std::uint64_t router_ticks = 0;
  };

  int shard_of(int id) const {
    return node_shard_[static_cast<size_t>(id < num_nodes_ ? id
                                                           : id - num_nodes_)];
  }

  void run_one_shard(Cycle now);
  void run_sharded(Cycle now);
  bool idle_at_sharded(Cycle now, Cycle* next_wake);
  void compute_phase(int s, Cycle now);
  /// Tick NI `n` (owned by shard `sh`) and note it if it staged a delivery.
  void tick_ni(Shard& sh, int n, Cycle now);
  void commit_compact_phase(int s, Cycle now);
  void serial_cycle(Cycle now);
  void drain_deliveries();

  void ensure_workers();
  void worker_loop(int s);
  void barrier_arrive();

  Network& net_;
  const int num_nodes_;
  const int num_shards_;
  bool force_serial_ = false;
  std::vector<Shard> shards_;
  std::vector<int> node_shard_;

  // --- worker synchronisation ---
  Cycle cycle_now_ = 0;  ///< published before go_seq_ (release) each cycle
  std::atomic<std::uint64_t> go_seq_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<int> barrier_arrived_{0};
  std::atomic<std::uint64_t> barrier_seq_{0};
  std::atomic<int> parked_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::vector<std::thread> workers_;
  bool workers_spawned_ = false;
};

}  // namespace hybridnoc
