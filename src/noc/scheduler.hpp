// Active-set tick scheduler: tracks which components (NIs, routers) need
// their tick() called this cycle, so the network can skip idle ones and
// fast-forward over cycles where nothing at all happens.
//
// Correctness contract (what keeps the active-set path bit-identical to a
// full sweep that ticks every component every cycle — the reference the
// scheduler-equivalence tests run, tests/properties/full_sweep_oracle.hpp):
//  * A spurious wake is harmless: ticking an idle component is a
//    deterministic no-op — the per-cycle energy constants it would accrue
//    are folded in closed form when it sleeps (see accumulate_idle_energy).
//  * A missed wake is a bug. Every Channel::send registers a wake for the
//    channel's consumer at the item's ready cycle, and a component is only
//    deactivated when it reports itself not busy, together with a
//    recomputed next-event cycle covering everything not channel-driven
//    (epoch boundaries, lease expiry, scheduled circuit injections).
//  * Wakes later than a component's recorded next wake are dropped: the
//    next wake is always a lower bound on the first cycle where the
//    component can have observable work, and on *every* wake the component
//    either stays active or re-derives a fresh next-event from scratch.
//
// Cost model: the scheduler maintains a sorted run list of the active slots
// so a cycle's dispatch is O(active) — not O(components) — which is what
// lets a 64x64 mesh tick at 8x8 cost when only a handful of nodes are busy.
// sweep() walks the run list in ascending slot order (identical to the
// full sweep's visit order); components that activate mid-sweep at a
// position the cursor has not reached yet are spliced in through a small
// side-heap, so they tick this cycle exactly as the flag-scan would have
// ticked them, and components that activate at an already-passed position
// wait for the next cycle, again exactly like the flag-scan.
//
// Each scheduler serves one shard of the tick engine (noc/parallel_engine.hpp):
// the shard's NI ids plus its router ids, two disjoint global ranges mapped
// onto one dense internal slot space. All public methods take global
// component ids. A shard that owns every node (the one-shard engine) maps
// ids flat: the NI-vs-router test in slot_of/id_of then always takes the
// same branch, which keeps the serial dispatch free of mispredictions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace hybridnoc {

class TickScheduler {
 public:
  /// (Re)initialize to own the global NI ids [ni_lo, ni_hi) and the global
  /// router ids [num_nodes + ni_lo, num_nodes + ni_hi), all active. Ascending
  /// internal slot order is the shard's NIs then its routers — the same
  /// relative order the global sweep visits them in. Starting everyone
  /// active means the first tick behaves exactly like a full sweep and
  /// components earn their way out of the active set.
  void reset_ranges(int ni_lo, int ni_hi, int num_nodes) {
    HN_CHECK(0 <= ni_lo && ni_lo < ni_hi && ni_hi <= num_nodes);
    const int num_slots = 2 * (ni_hi - ni_lo);
    lo1_ = ni_lo;
    lo2_ = num_nodes + ni_lo;
    count1_ = ni_hi - ni_lo;
    if (num_slots == 2 * num_nodes) {
      // Every node: one flat range. Same mapping, but the NI-vs-router test
      // in slot_of/id_of then always takes its first branch.
      lo2_ = count1_ = num_slots;
    }
    active_count_ = num_slots;
    active_.assign(static_cast<size_t>(num_slots), 1);
    next_wake_.assign(static_cast<size_t>(num_slots), kCycleNever);
    // Everyone starts active, so the run list starts as the full slot range.
    run_list_.resize(static_cast<size_t>(num_slots));
    for (int s = 0; s < num_slots; ++s) run_list_[static_cast<size_t>(s)] = s;
    in_list_.assign(static_cast<size_t>(num_slots), 1);
    incoming_.clear();
    sweep_extra_ = {};
    in_sweep_ = false;
    cursor_ = 0;
    heap_ = {};
    now_ = 0;
  }

  /// Start cycle `now`: promote every component whose wake is due.
  void begin_cycle(Cycle now) {
    now_ = now;
    if (!heap_.empty() && heap_.top().first <= now) promote_due_wakes();
  }

  /// Component `id` has (or may have) observable work at cycle `at`.
  /// Conservative: spurious wakes are harmless, missed wakes are not.
  void wake_at(int id, Cycle at) {
    const auto i = static_cast<size_t>(slot_of(id));
    if (active_[i]) return;
    if (at <= now_) {
      activate(static_cast<int>(i));
      return;
    }
    if (at < next_wake_[i]) {
      next_wake_[i] = at;
      heap_.emplace(at, static_cast<int>(i));
    }
  }

  /// Is component `id` marked active right now? Only the parallel engine's
  /// serial fallback still polls this per position (its dispatch *order* is
  /// the observable artifact there); the hot paths drain the run list via
  /// sweep() instead.
  bool component_active(int id) const {
    return active_[static_cast<size_t>(slot_of(id))] != 0;
  }

  /// Dispatch the cycle: call `tick(id)` for every active component in
  /// ascending slot order (NIs then routers — the full-sweep order),
  /// touching only the run list, never the full slot range. Components
  /// activated from inside a tick behave exactly as under a full
  /// flag-scan: a position still ahead of the cursor ticks this cycle (the
  /// side-heap splices it in in order), an already-passed position ticks
  /// next cycle.
  template <typename TickFn>
  void sweep(TickFn&& tick) {
    merge_incoming();
    in_sweep_ = true;
    size_t w = 0;
    const size_t n = run_list_.size();
    for (size_t r = 0; r < n; ++r) {
      const int slot = run_list_[r];
      // Mid-sweep activations at positions before `slot` run first so the
      // overall dispatch order stays ascending.
      while (!sweep_extra_.empty() && sweep_extra_.top() < slot) {
        cursor_ = sweep_extra_.top();
        sweep_extra_.pop();
        tick(id_of(cursor_));
      }
      cursor_ = slot;
      if (!active_[static_cast<size_t>(slot)]) {
        // Stale entry (slept since it was listed): drop it. The membership
        // flag clears with it, so a later re-activation re-lists the slot.
        in_list_[static_cast<size_t>(slot)] = 0;
        continue;
      }
      run_list_[w++] = slot;
      tick(id_of(slot));
    }
    while (!sweep_extra_.empty()) {
      cursor_ = sweep_extra_.top();
      sweep_extra_.pop();
      tick(id_of(cursor_));
    }
    run_list_.resize(w);
    in_sweep_ = false;
  }

  /// Post-tick compaction: keep `busy(id)` components active; put the rest
  /// to sleep until `next_event(id)` (kCycleNever = wait for a channel wake).
  /// Walks only the run list (plus anything that activated since the sweep),
  /// so its cost tracks the active set, not the component count.
  ///
  /// Each component is only *considered* for sleep on its sampling slot —
  /// once every kSamplePeriod cycles, staggered by global id. Deactivating
  /// on an instantaneous not-busy reading is always safe (next_event
  /// re-derives the wake from scratch, channel fronts included), so sampling
  /// changes nothing about correctness; it just bounds the busy-polling cost
  /// to 1/kSamplePeriod of the active set per cycle, and doubles as
  /// hysteresis: components flickering between busy and idle (the common
  /// case under load) skip the sleep/wake round-trip — a next-event
  /// recomputation plus heap traffic that dwarfs the spurious no-op ticks
  /// sampling admits (harmless by the contract above). A fully idle network
  /// still quiesces within kSamplePeriod cycles of its last event.
  template <typename BusyFn, typename NextEventFn>
  void compact(BusyFn&& busy, NextEventFn&& next_event) {
    merge_incoming();
    size_t w = 0;
    const size_t n = run_list_.size();
    for (size_t r = 0; r < n; ++r) {
      const int slot = run_list_[r];
      const auto i = static_cast<size_t>(slot);
      if (!active_[i]) {
        in_list_[i] = 0;  // stale entry left behind by an earlier pass
        continue;
      }
      const int id = id_of(slot);
      if ((static_cast<Cycle>(id) & (kSamplePeriod - 1)) ==
              (now_ & (kSamplePeriod - 1)) &&
          !busy(id)) {
        active_[i] = 0;
        --active_count_;
        in_list_[i] = 0;
        next_wake_[i] = kCycleNever;
        const Cycle at = next_event(id);
        if (at != kCycleNever) {
          HN_CHECK_MSG(at > now_, "next-event cycle must lie in the future");
          next_wake_[i] = at;
          heap_.emplace(at, slot);
        }
        continue;  // removed from the run list
      }
      run_list_[w++] = slot;
    }
    run_list_.resize(w);
  }

  bool anything_active() const { return active_count_ > 0; }

  /// Earliest pending wake, or kCycleNever. Discards stale heap entries.
  Cycle next_wake_cycle() {
    if (heap_.empty()) return kCycleNever;
    return live(heap_.top()) ? heap_.top().first : drop_stale_wakes();
  }

 private:
  /// Cycles between sleep-eligibility checks per component (power of two).
  static constexpr Cycle kSamplePeriod = 8;

  using HeapEntry = std::pair<Cycle, int>;  ///< (wake cycle, internal slot)

  /// A heap entry is live while its slot sleeps with exactly that wake;
  /// anything else (superseded by an earlier wake, or the component was
  /// activated through another path meanwhile) is stale and just dropped.
  bool live(const HeapEntry& e) const {
    const auto i = static_cast<size_t>(e.second);
    return !active_[i] && next_wake_[i] == e.first;
  }

  /// Activate every slot whose wake is due by now_. Out of line, like
  /// drop_stale_wakes: the heap work stays off the inlined idle-cycle and
  /// fast-forward paths, which only test the heap top.
  [[gnu::noinline]] void promote_due_wakes() {
    while (!heap_.empty() && heap_.top().first <= now_) {
      const HeapEntry e = heap_.top();
      heap_.pop();
      if (live(e)) activate(e.second);
    }
  }

  /// Pop stale entries; returns the earliest live wake, or kCycleNever.
  [[gnu::noinline]] Cycle drop_stale_wakes() {
    while (!heap_.empty()) {
      if (live(heap_.top())) return heap_.top().first;
      heap_.pop();
    }
    return kCycleNever;
  }

  /// Fold newly-listed slots into the sorted run list. Incoming batches are
  /// tiny relative to the run list (a slot enters at most once between
  /// merges), so sort-small + inplace_merge is the cheap path.
  void merge_incoming() {
    if (incoming_.empty()) return;
    std::sort(incoming_.begin(), incoming_.end());
    const auto mid = static_cast<std::ptrdiff_t>(run_list_.size());
    run_list_.insert(run_list_.end(), incoming_.begin(), incoming_.end());
    std::inplace_merge(run_list_.begin(), run_list_.begin() + mid,
                       run_list_.end());
    incoming_.clear();
  }

  /// Global component id -> dense internal slot. With the flat mapping
  /// (lo1_ = 0, lo2_ = count1_ = slot count) every id takes the first
  /// branch, which is the identity.
  int slot_of(int id) const {
    return id < lo2_ ? id - lo1_ : count1_ + (id - lo2_);
  }
  int id_of(int slot) const {
    return slot < count1_ ? lo1_ + slot : lo2_ + (slot - count1_);
  }

  void activate(int slot) {
    const auto i = static_cast<size_t>(slot);
    active_[i] = 1;
    next_wake_[i] = kCycleNever;
    ++active_count_;
    if (!in_list_[i]) {
      in_list_[i] = 1;
      incoming_.push_back(slot);
      // Activated from inside a tick at a position the cursor has not
      // reached: splice it into this sweep so it runs this cycle, exactly
      // where a full flag-scan would have found its flag set. (If the
      // slot is already listed ahead of the cursor, the run-list entry
      // itself will dispatch it — entries behind the cursor were either
      // dispatched or dropped with their membership flag cleared.)
      if (in_sweep_ && slot > cursor_) sweep_extra_.push(slot);
    }
  }

  std::vector<std::uint8_t> active_;
  std::vector<Cycle> next_wake_;  ///< valid pending wake, kCycleNever if none
  /// Sorted slots the next sweep/compact must visit: every active slot plus
  /// stale leftovers (pruned lazily on the next walk).
  std::vector<int> run_list_;
  std::vector<int> incoming_;  ///< newly-listed slots awaiting merge
  std::vector<std::uint8_t> in_list_;  ///< slot is in run_list_ or incoming_
  /// Mid-sweep activations ahead of the cursor, dispatched in slot order.
  std::priority_queue<int, std::vector<int>, std::greater<int>> sweep_extra_;
  bool in_sweep_ = false;
  int cursor_ = 0;
  int active_count_ = 0;
  int lo1_ = 0;     ///< first global id of range 1 (the NIs)
  int lo2_ = 0;     ///< first global id of range 2 (the routers)
  int count1_ = 0;  ///< size of range 1
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>>
      heap_;
  Cycle now_ = 0;
};

}  // namespace hybridnoc
