// Network-wide controller for dynamic time-division granularity
// (Section II-C): all slot tables start with a small powered region; when
// path allocation keeps failing, the active size doubles and every table is
// reset so the setup procedure can restart.
//
// Resizing is only performed when no circuit-switched flit is in flight —
// while a resize is pending, NIs stop scheduling new circuit traffic and the
// controller waits for the fabric's CS population to drain to zero. (In
// hardware the reset would be sequenced the same way: quiesce, flash-clear,
// restart.) Configuration messages (setup/ack/teardown) do NOT block the
// reset: they are packet-switched and carry the table generation they were
// created under, so any message that straddles a reset is discarded at the
// next protocol endpoint instead of acting on wiped state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/config.hpp"
#include "common/types.hpp"

namespace hybridnoc {

class StateWriter;
class StateReader;

class TdmController {
 public:
  explicit TdmController(const NocConfig& cfg);

  /// Powered slots per table right now.
  int active_slots() const { return active_slots_; }

  /// Monotonically increasing slot-table generation: bumped every time the
  /// tables are wiped (dynamic grow or forced reset). Config messages and
  /// reservation state are stamped with it; anything stamped with an older
  /// generation is stale and must be discarded.
  std::uint64_t table_generation() const { return generation_; }

  /// Request a table reset (doubling the active size when below capacity).
  /// Executes at the next tick on which the circuit fabric is quiescent.
  /// Exposed for tests and external resize policies.
  void request_resize() { reset_pending_ = true; }

  /// May NIs schedule new circuit-switched traffic / setups?
  bool cs_allowed() const { return !reset_pending_; }

  // NIs and routers bump these counters from inside their ticks, which the
  // parallel tick engine runs on shard threads; relaxed atomics keep the
  // sums exact (addition commutes) and the data race formally absent. The
  // controller only *reads* them in its own tick, after the cycle barrier.

  /// Source NI reports a setup failure ack (drives the resize heuristic).
  void record_setup_failure() {
    failures_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Source NI reports a successful setup.
  void record_setup_success() {
    successes_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- in-flight circuit-switched flit tracking ---
  void cs_flit_launched() { cs_in_flight_.fetch_add(1, std::memory_order_relaxed); }
  void cs_flit_retired() {
    const std::uint64_t prev =
        cs_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    HN_CHECK(prev > 0);
  }
  std::uint64_t cs_in_flight() const {
    return cs_in_flight_.load(std::memory_order_relaxed);
  }

  // --- in-flight configuration packet tracking (setup/teardown/ack) ---
  void config_launched() {
    config_in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  void config_retired() {
    const std::uint64_t prev =
        config_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    HN_CHECK(prev > 0);
  }
  std::uint64_t config_in_flight() const {
    return config_in_flight_.load(std::memory_order_relaxed);
  }

  // --- NIs holding planned circuit injections ---
  // Maintained by HybridNi on every empty <-> non-empty transition of its
  // cs_plan_ (delta +1 / -1), so the reset-pending quiescence poll is an
  // O(1) gauge read instead of an all-NI plan walk every cycle. Relaxed
  // atomic for the same reason as the in-flight counters: shard threads
  // mutate it from inside ticks, the controller reads it after the barrier.
  void note_cs_plan_transition(int delta) {
    nis_with_cs_plan_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// NIs whose circuit-injection plan is currently non-empty.
  int nis_with_cs_plan() const {
    return nis_with_cs_plan_.load(std::memory_order_relaxed);
  }

  /// Installed by the hybrid network: true when no circuit-switched flit is
  /// planned or in flight anywhere (NIs' plans included) — the precondition
  /// for a safe table reset.
  void set_quiesced_check(std::function<bool()> check) {
    quiesced_check_ = std::move(check);
  }

  /// Installed by the hybrid network: clears all slot tables, connection
  /// state, DLTs and pending setups, and applies the new active size.
  void set_reset_hook(std::function<void(int /*new_active*/)> hook) {
    reset_hook_ = std::move(hook);
  }

  /// Called once per cycle by the hybrid network, after all components.
  void tick(Cycle now);

  /// Earliest cycle > now at which a tick would do observable work (poll a
  /// pending reset, fold non-zero epoch counters, or arm the resize
  /// heuristic); kCycleNever when every upcoming tick is a provable no-op.
  /// Bounds how far the network's fast-forward may jump.
  Cycle next_event(Cycle now) const;

  int resizes() const { return resizes_; }

  /// Checkpoint: requires a drained fabric (no circuit or config traffic in
  /// flight, no NI holding a planned circuit injection).
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  template <typename Ar, typename Self>
  static void layout(Ar& ar, Self& self);

  const NocConfig cfg_;
  int active_slots_;
  std::uint64_t generation_ = 0;
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> successes_{0};
  std::atomic<std::uint64_t> cs_in_flight_{0};
  std::atomic<std::uint64_t> config_in_flight_{0};
  std::atomic<int> nis_with_cs_plan_{0};
  std::function<bool()> quiesced_check_;
  bool reset_pending_ = false;
  Cycle epoch_start_ = 0;
  int resizes_ = 0;
  std::function<void(int)> reset_hook_;
};

}  // namespace hybridnoc
