#include "noc/parallel_engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "noc/network.hpp"

namespace hybridnoc {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins before a worker parks on the condvar between cycles. Back-to-back
/// cycles resume in the spin window; fast-forwarded idle stretches park.
constexpr int kSpinLimit = 1 << 14;

/// Spins inside the cycle barrier before falling back to sched_yield. The
/// barrier is crossed twice per cycle, so parking there would dominate; but
/// on an oversubscribed machine (more shards than free cores) a pure spin
/// burns a whole scheduler timeslice waiting for a thread that cannot run —
/// yielding hands the core over immediately and keeps the engine merely
/// slower, not pathological, when cores are scarce.
constexpr int kBarrierSpinLimit = 1 << 10;

}  // namespace

ParallelTickEngine::ParallelTickEngine(Network& net, int threads)
    : net_(net),
      num_nodes_(net.num_nodes()),
      num_shards_(std::min(threads, net.num_nodes())) {
  HN_CHECK(threads >= 1);
  shards_.resize(static_cast<size_t>(num_shards_));
  node_shard_.resize(static_cast<size_t>(num_nodes_));
  // Row-aligned partitioning: with row-major node ids, cutting only on row
  // boundaries means the sole cross-shard channels are the North/South links
  // of one row seam per shard pair — a mid-row cut would additionally stage
  // every East/West link it severs. At 64x64 that roughly halves the staged
  // channel count per seam and keeps each shard's working set a contiguous
  // block of whole rows. Partitioning only affects which channels stage, so
  // this is bit-identical by construction (thread-equivalence suite covers
  // it). Falls back to the plain node split when shards outnumber rows.
  const int k = net.mesh().k();
  const bool row_aligned = num_shards_ <= k;
  for (int s = 0; s < num_shards_; ++s) {
    Shard& sh = shards_[static_cast<size_t>(s)];
    if (row_aligned) {
      sh.node_lo = (s * k / num_shards_) * k;
      sh.node_hi = ((s + 1) * k / num_shards_) * k;
    } else {
      sh.node_lo = s * num_nodes_ / num_shards_;
      sh.node_hi = (s + 1) * num_nodes_ / num_shards_;
    }
    for (int n = sh.node_lo; n < sh.node_hi; ++n) {
      node_shard_[static_cast<size_t>(n)] = s;
    }
    sh.sched.reset_ranges(sh.node_lo, sh.node_hi, num_nodes_);
  }
}

ParallelTickEngine::~ParallelTickEngine() {
  if (!workers_spawned_) return;
  {
    std::lock_guard<std::mutex> lk(park_mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  park_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ParallelTickEngine::register_link_channel(ChannelBase* ch,
                                               int producer_id,
                                               int consumer_id) {
  const int ps = shard_of(producer_id);
  const int cs = shard_of(consumer_id);
  if (ps == cs) return;
  ch->set_staged(true);
  shards_[static_cast<size_t>(cs)].commit_list.push_back(ch);
}

void ParallelTickEngine::ensure_workers() {
  if (workers_spawned_) return;
  workers_spawned_ = true;
  workers_.reserve(static_cast<size_t>(num_shards_ - 1));
  for (int s = 1; s < num_shards_; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

void ParallelTickEngine::worker_loop(int s) {
  std::uint64_t last = 0;
  for (;;) {
    std::uint64_t g;
    int spins = 0;
    while ((g = go_seq_.load(std::memory_order_acquire)) == last &&
           !shutdown_.load(std::memory_order_acquire)) {
      if (++spins < kSpinLimit) {
        cpu_relax();
        continue;
      }
      // seq_cst on the parked_ increment and the predicate's go_seq_ read
      // pairs with the seq_cst publish in run_cycle: the classic
      // store-buffer interleaving (worker parks reading a stale go_seq_
      // while the main thread reads a stale parked_ == 0 and skips the
      // notify) is forbidden in the single total order.
      std::unique_lock<std::mutex> lk(park_mu_);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      park_cv_.wait(lk, [&] {
        return go_seq_.load(std::memory_order_seq_cst) != last ||
               shutdown_.load(std::memory_order_acquire);
      });
      parked_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    last = g;
    const Cycle now = cycle_now_;
    compute_phase(s, now);
    barrier_arrive();
    commit_compact_phase(s, now);
    barrier_arrive();
  }
}

void ParallelTickEngine::barrier_arrive() {
  const std::uint64_t seq = barrier_seq_.load(std::memory_order_relaxed);
  if (barrier_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      num_shards_) {
    barrier_arrived_.store(0, std::memory_order_relaxed);
    barrier_seq_.store(seq + 1, std::memory_order_release);
  } else {
    int spins = 0;
    while (barrier_seq_.load(std::memory_order_acquire) == seq) {
      if (++spins < kBarrierSpinLimit) {
        cpu_relax();
      } else {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }
}

void ParallelTickEngine::compute_phase(int s, Cycle now) {
  Shard& sh = shards_[static_cast<size_t>(s)];
  // Drain the shard scheduler's run list directly — O(active in shard), not
  // O(shard size). Ascending slot order within the shard is its NIs then its
  // routers, matching the slice of the global sweep order this shard owns.
  sh.sched.begin_cycle(now);
  sh.sched.sweep([&](int id) {
    if (id < num_nodes_) {
      tick_ni(sh, id, now);
      ++sh.ni_ticks;
    } else {
      net_.router_ptrs_[static_cast<size_t>(id - num_nodes_)]->tick(now);
      ++sh.router_ticks;
    }
  });
}

void ParallelTickEngine::tick_ni(Shard& sh, int n, Cycle now) {
  NetworkInterface* ni = net_.ni_ptrs_[static_cast<size_t>(n)];
  ni->tick(now);
  if (ni->has_staged_deliveries()) sh.delivering.push_back(ni);
}

void ParallelTickEngine::commit_compact_phase(int s, Cycle now) {
  Shard& sh = shards_[static_cast<size_t>(s)];
  // Commit before compact: compaction's next-event derivation reads the
  // consumer-side channel fronts, which must include this cycle's sends —
  // exactly what the one-shard engine's eager sends would have left behind.
  for (ChannelBase* ch : sh.commit_list) ch->commit_staged();
  sh.sched.compact(
      [&](int id) {
        return id < num_nodes_
                   ? net_.ni_ptrs_[static_cast<size_t>(id)]->sched_busy()
                   : net_.router_ptrs_[static_cast<size_t>(id - num_nodes_)]
                         ->sched_busy();
      },
      [&](int id) {
        return id < num_nodes_
                   ? net_.ni_ptrs_[static_cast<size_t>(id)]->sched_next_event(now)
                   : net_.router_ptrs_[static_cast<size_t>(id - num_nodes_)]
                         ->sched_next_event(now);
      });
}

void ParallelTickEngine::serial_cycle(Cycle now) {
  // Exact global sweep order (every NI ascending, then every router): the
  // modes that force this path observe the dispatch sequence itself, so it
  // must match the one-shard engine event for event.
  for (Shard& sh : shards_) sh.sched.begin_cycle(now);
  for (int n = 0; n < num_nodes_; ++n) {
    if (sched_for(n)->component_active(n)) {
      tick_ni(shards_[static_cast<size_t>(shard_of(n))], n, now);
    }
  }
  for (int n = 0; n < num_nodes_; ++n) {
    if (sched_for(num_nodes_ + n)->component_active(num_nodes_ + n)) {
      net_.router_ptrs_[static_cast<size_t>(n)]->tick(now);
    }
  }
  // Staged channels stay staged; their outboxes just drain on one thread.
  // Cross-channel commit order is irrelevant (one producer per channel,
  // wake-ups dedup), so shard order is as good as any.
  for (int s = 0; s < num_shards_; ++s) commit_compact_phase(s, now);
}

void ParallelTickEngine::run_one_shard(Cycle now) {
  compute_phase(0, now);
  commit_compact_phase(0, now);
}

void ParallelTickEngine::run_sharded(Cycle now) {
  const bool serial =
      force_serial_ || (net_.faults_ && net_.faults_->recording());
  if (serial) {
    serial_cycle(now);
    drain_deliveries();
    return;
  }
  // Make the fault model's lazy topology caches warm before shard threads
  // issue concurrent health queries.
  if (net_.faults_) net_.faults_->prepare(now);
  ensure_workers();
  cycle_now_ = now;
  go_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    // Empty critical section before the notify: a worker between its
    // predicate check and the actual block holds park_mu_, so acquiring it
    // here guarantees the worker is either fully registered on the condvar
    // (the notify wakes it) or will re-check the predicate and see the new
    // go_seq_ (it never blocks).
    { std::lock_guard<std::mutex> lk(park_mu_); }
    park_cv_.notify_all();
  }
  compute_phase(0, now);
  barrier_arrive();
  commit_compact_phase(0, now);
  barrier_arrive();
  drain_deliveries();
}

bool ParallelTickEngine::idle_at_sharded(Cycle now, Cycle* next_wake) {
  *next_wake = kCycleNever;
  for (Shard& sh : shards_) {
    sh.sched.begin_cycle(now);
    if (sh.sched.anything_active()) return false;
    *next_wake = std::min(*next_wake, sh.sched.next_wake_cycle());
  }
  return true;
}

void ParallelTickEngine::drain_deliveries() {
  // Shards own ascending node ranges and each lists its delivering NIs in
  // ascending id order, so this is the ascending NI order over the mesh.
  for (Shard& sh : shards_) {
    for (NetworkInterface* ni : sh.delivering) ni->flush_staged_deliveries();
    sh.delivering.clear();
  }
}

void ParallelTickEngine::accumulate_profile(TickProfile& p) const {
  // Shard counters are written only by the owning worker inside a cycle;
  // reading them here (between cycles, after the closing barrier) is
  // ordered by that barrier's release/acquire pair.
  for (const Shard& sh : shards_) {
    p.ni_ticks += sh.ni_ticks;
    p.router_ticks += sh.router_ticks;
  }
}

}  // namespace hybridnoc
