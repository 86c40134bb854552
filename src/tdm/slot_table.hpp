// The per-router slot table of Section II: S recurrent time slots; for each
// slot and each input port, a valid bit plus an output-port id. A valid entry
// at slot s means "at cycles ≡ s (mod S_active), the crossbar connection
// in -> out is reserved for a circuit-switched flit".
//
// Reservation semantics follow Figure 1 exactly:
//  * reservations cover `duration` consecutive slots, modulo the active size;
//  * a reservation fails if any covered (slot, in) entry is already valid
//    (input conflict, Figure 1 setup 2);
//  * or if any other input holds the same output at a covered slot
//    (output conflict, Figure 1 setup 3);
//  * failed reservations leave the table untouched;
//  * teardown resets the valid bits so slots can be reused.
//
// Each entry additionally records the id of the setup message that created
// it (its *owner*) and the cycle it was last reserved or used. The owner tag
// fences teardowns: a teardown releases only entries its own setup wrote, so
// a late, duplicated or mis-addressed teardown can never destroy another
// connection's reservations. The use stamp backs a lease: entries that carry
// no circuit traffic for a long time are reclaimed (expire_older_than),
// bounding the damage of a lost teardown.
//
// Storage follows the hardware split: a hot column of one byte per
// (input port, slot) holding the output port, or kFree when the valid bit is
// clear, and a cold column of 16-byte leases (owner, stamp). Both are flat,
// one allocation each, indexed port-major, so every read that needs only the
// valid bit and output port (lookup, conflict checks, the untracked sweep)
// touches bytes. Both columns are allocated together on the first successful
// reserve (or a restore that brings entries), never at construction: a
// router that never carries a circuit holds no entry storage, so a table
// with no storage has no valid entries. Per-port valid counts let every
// reader skip a port the moment its count is zero, which is also what keeps
// readers off the columns before they exist: on a quiet router the periodic
// sweeps are five integer reads. The expiry index
// stores no per-entry bucket: a valid entry's bucket is its stamp >>
// kExpiryBucketShift, so a bucket reference is live exactly while its entry
// is valid and still stamped inside that bucket.
//
// Section II-C's dynamic time-division granularity is supported through the
// active size: only the first `active` entries participate (arithmetic is
// modulo `active`); the rest are power-gated. Growing the active size resets
// the table (the paper: "all slot tables are reset, and the path setup
// procedure restarts").
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/pool.hpp"
#include "common/types.hpp"

namespace hybridnoc {

class StateWriter;
class StateReader;

class SlotTable {
 public:
  /// `capacity` is the physical table size; `active` the initially powered
  /// region. Both must be powers of two, active <= capacity.
  SlotTable(int capacity, int active);

  int capacity() const { return capacity_; }
  int active_size() const { return active_; }

  /// Slot index a given cycle maps to.
  int slot_of(Cycle cycle) const { return static_cast<int>(cycle) & (active_ - 1); }

  /// Would reserving [slot, slot+duration) for in->out succeed?
  bool can_reserve(int slot, int duration, Port in, Port out) const;

  /// Reserve; returns false (table unchanged) on any conflict. `owner` tags
  /// the entries with the reserving setup's packet id (0 = untagged); `now`
  /// initialises the lease stamp.
  bool reserve(int slot, int duration, Port in, Port out, PacketId owner = 0,
               Cycle now = 0);

  /// Invalidate [slot, slot+duration) for `in`. Entries already invalid are
  /// ignored (a teardown may race a smaller prior release), and when
  /// `owner` is nonzero so are entries written by a different setup — a
  /// stale teardown must not release a newer connection's slots. Returns the
  /// output port of the first valid released entry, if any.
  std::optional<Port> release(int slot, int duration, Port in,
                              PacketId owner = 0);

  /// Valid entry for (cycle, in), if any.
  std::optional<Port> lookup(Cycle cycle, Port in) const;
  std::optional<Port> lookup_slot(int slot, Port in) const;

  /// Owner tag of the valid entry at (slot, in), if any.
  std::optional<PacketId> owner_at(int slot, Port in) const;

  /// Refresh the lease stamp of the valid entries [slot, slot+count) for
  /// `in`; called when circuit traffic traverses a reservation window.
  void refresh(int slot, int count, Port in, Cycle now);

  /// Release every valid entry whose lease stamp is older than `cutoff`,
  /// invoking `on_expire(slot, in)` for each released entry. Returns the
  /// number of entries released. This is the backstop that reclaims
  /// reservations orphaned by lost teardown messages.
  ///
  /// Ports with no valid entries are skipped outright. With expiry tracking
  /// on (the default), each port's entries are bucketed by
  /// stamp >> kExpiryBucketShift, so a sweep visits only buckets that can
  /// hold expirable stamps — O(expired + stale refs retired + one straddling
  /// bucket per port) instead of a full active x kNumPorts scan. Bucket
  /// references go stale when an entry is released or re-stamped into
  /// another bucket; they are validated (and discarded) lazily here, which
  /// keeps reserve/refresh O(1).
  ///
  /// Expiry order is port-major (all of port 0's expirations before port
  /// 1's). Callers' on_expire actions (DLT invalidation, counter bumps) are
  /// commutative across entries, so the order is not observable.
  template <typename ExpireFn>
  int expire_older_than(Cycle cutoff, ExpireFn&& on_expire) {
    int expired = 0;
    for (int j = 0; j < kNumPorts; ++j) {
      if (valid_by_port_[static_cast<size_t>(j)] == 0) continue;
      const Port in = static_cast<Port>(j);
      if (!track_expiry_) {
        for (int s = 0; s < active_; ++s) {
          const size_t c = cell(s, in);
          if (out_[c] == kFree || lease_[c].stamp >= cutoff) continue;
          out_[c] = kFree;
          --valid_by_port_[static_cast<size_t>(j)];
          ++expired;
          on_expire(s, in);
        }
        continue;
      }
      auto& buckets = expiry_buckets_[static_cast<size_t>(j)];
      auto it = buckets.begin();
      // A bucket with key K holds stamps in [K << shift, (K+1) << shift); it
      // can contain expirable entries only if its lowest stamp is < cutoff.
      while (it != buckets.end() &&
             (it->first << kExpiryBucketShift) < cutoff) {
        SlotList survivors;
        for (const std::uint32_t slot : it->second) {
          const size_t c = cell(static_cast<int>(slot), in);
          const Cycle stamp = lease_[c].stamp;
          if (out_[c] == kFree || (stamp >> kExpiryBucketShift) != it->first) {
            continue;  // stale reference
          }
          if (stamp >= cutoff) {  // straddling bucket: not old enough yet
            survivors.push_back(slot);
            continue;
          }
          out_[c] = kFree;
          --valid_by_port_[static_cast<size_t>(j)];
          ++expired;
          on_expire(static_cast<int>(slot), in);
        }
        if (survivors.empty()) {
          it = buckets.erase(it);
        } else {
          it->second = std::move(survivors);
          ++it;
        }
      }
    }
    return expired;
  }

  /// Enable/disable the expiry-bucket index. Routers disable it when the
  /// reservation lease is off so reserve/refresh carry no bookkeeping;
  /// enabling it (re)builds the index from the current valid entries.
  void set_expiry_tracking(bool on);

  /// Some input holds `out` at the slot of `cycle`? Returns that input.
  std::optional<Port> output_reserved_at(Cycle cycle, Port out) const;

  /// Fraction of (active slot, input) entries that are valid.
  double occupancy() const;
  int valid_entries() const {
    int total = 0;
    for (const int c : valid_by_port_) total += c;
    return total;
  }
  /// Valid entries under one input port — lets sweeps and audits skip a
  /// port's whole column in O(1).
  int valid_entries(Port in) const {
    return valid_by_port_[static_cast<size_t>(in)];
  }

  /// Heap bytes of the entry columns (port bytes plus leases); zero until
  /// the first reservation allocates them.
  size_t storage_bytes() const {
    return out_.capacity() + lease_.capacity() * sizeof(Lease);
  }

  /// True if all entries [slot, slot+duration) for `in` are invalid —
  /// the NI-side pre-check before proposing a slot id for a setup.
  bool input_free(int slot, int duration, Port in) const;

  /// Clear all reservations.
  void reset();

  /// Double the active region (clears the table). No-op at capacity.
  /// Returns true if the size changed.
  bool grow();

  /// Set the active region explicitly (clears the table).
  void set_active_size(int active);

  /// Checkpoint: serialize active size, tracking mode and every valid entry
  /// (sparse — owner/stamp/out per valid slot). The expiry-bucket index is
  /// not serialized; restore rebuilds it, which preserves behaviour because
  /// expiry callbacks are commutative across entries (see expire_older_than).
  void save_state(StateWriter& w) const;
  /// Restores into a table of the same capacity; throws StateError on a
  /// structural mismatch (never aborts — a bad archive means "recompute").
  void restore_state(StateReader& r);

 private:
  /// 1024-cycle expiry buckets, matching the routers' sweep cadence.
  static constexpr int kExpiryBucketShift = 10;
  /// Port byte of an invalid entry (valid bit clear).
  static constexpr std::uint8_t kFree = 0xFF;
  static_assert(kNumPorts < kFree, "port ids must fit below kFree");

  /// Cold half of an entry: read by owner-fenced releases, the lease and
  /// checkpoints, never by lookups.
  struct Lease {
    PacketId owner = 0;  ///< id of the setup that wrote the entry
    Cycle stamp = 0;     ///< last reserve/traversal cycle (lease clock)
  };
  static_assert(sizeof(Lease) == 16, "lease column is two 64-bit words");

  /// Allocate both columns, all entries free; no-op once allocated.
  void allocate();
  /// Port-major index of (slot, in) in both columns.
  size_t cell(int slot, Port in) const {
    return static_cast<size_t>(in) * static_cast<size_t>(capacity_) +
           static_cast<size_t>(slot);
  }
  int wrap(int slot) const { return slot & (active_ - 1); }
  /// Index the valid entry at (slot, in) just stamped `stamp`, unless it was
  /// already valid with stamp `prev` in the same bucket, whose reference
  /// still finds it. Callers pass prev = kCycleNever for a fresh entry.
  void note_expiry(int slot, Port in, Cycle prev, Cycle stamp) {
    if (!track_expiry_) return;
    const Cycle key = stamp >> kExpiryBucketShift;
    if (prev != kCycleNever && (prev >> kExpiryBucketShift) == key) return;
    expiry_buckets_[static_cast<size_t>(in)][key].push_back(
        static_cast<std::uint32_t>(slot));
  }

  int capacity_;
  int active_;
  /// Output port per (input port, slot), kFree when invalid; empty until
  /// allocate(), and never read for a port whose valid count is zero.
  std::vector<std::uint8_t> out_;
  /// Owner and stamp per (input port, slot); meaningful only where valid.
  std::vector<Lease> lease_;
  std::array<int, kNumPorts> valid_by_port_{};
  bool track_expiry_ = true;
  /// Per input port: stamp bucket -> slot indices, lazily validated.
  /// The ordered map keeps sweeps in deterministic ascending-bucket order;
  /// nodes and index storage are pool-backed because new stamp buckets keep
  /// appearing as simulated time advances — the one slot-table operation
  /// that would otherwise enter the allocator in steady state.
  using SlotList = std::vector<std::uint32_t, PoolAlloc<std::uint32_t>>;
  std::array<PooledMap<Cycle, SlotList>, kNumPorts> expiry_buckets_;
};

}  // namespace hybridnoc
