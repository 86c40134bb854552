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
// Storage follows the hardware split. The hot column holds one byte per
// (input port, slot): the output port, or kFree when the valid bit is clear.
// Every read that needs only the valid bit and output port (lookup, conflict
// checks, the lease sweep's scan) touches these bytes alone. Beside it, a
// 16-bit handle per cell leads a valid entry to its lease (owner, stamp) in
// a compact store that holds one lease per valid entry and swap-removes on
// release, so lease memory grows with reservations, not with capacity.
// Both cell columns are flat, port-major and allocated together on the
// first successful reserve (or a restore that brings entries), never at
// construction: a router that never carries a circuit holds no entry
// storage. Per-port valid counts let every reader skip a port the moment
// its count is zero, which also keeps readers off the columns before they
// exist: on a quiet router the periodic sweep is five integer reads.
//
// Section II-C's dynamic time-division granularity is supported through the
// active size: only the first `active` entries participate (arithmetic is
// modulo `active`); the rest are power-gated. Growing the active size resets
// the table (the paper: "all slot tables are reset, and the path setup
// procedure restarts").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace hybridnoc {

class StateWriter;
class StateReader;

class SlotTable {
 public:
  /// `capacity` is the physical table size; `active` the initially powered
  /// region. Both must be powers of two, active <= capacity <=
  /// NocConfig::kMaxSlotTableSize.
  /// `leased` records whether the owner sweeps expired leases; it is kept
  /// only for checkpoints, whose archive carries it as one byte.
  SlotTable(int capacity, int active, bool leased = true);

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
  /// Ports with no valid entries are skipped outright; the others' port
  /// bytes are scanned in slot order, and only valid entries read their
  /// lease. Expiry order is port-major (all of port 0's expirations before
  /// port 1's). Callers' on_expire actions (DLT invalidation, counter
  /// bumps) are commutative across entries, so the order is not observable.
  template <typename ExpireFn>
  int expire_older_than(Cycle cutoff, ExpireFn&& on_expire) {
    int expired = 0;
    for (int j = 0; j < kNumPorts; ++j) {
      const Port in = static_cast<Port>(j);
      for (int s = 0; s < active_ && valid_entries(in) > 0; ++s) {
        const size_t c = cell(s, in);
        if (out_[c] == kFree || lease(c).stamp >= cutoff) continue;
        vacate(c);
        ++expired;
        on_expire(s, in);
      }
    }
    return expired;
  }

  /// Some input holds `out` at the slot of `cycle`? Returns that input.
  std::optional<Port> output_reserved_at(Cycle cycle, Port out) const;

  /// Fraction of (active slot, input) entries that are valid.
  double occupancy() const;
  int valid_entries() const { return static_cast<int>(leases_.size()); }
  /// Valid entries under one input port — lets sweeps and audits skip a
  /// port's whole column in O(1).
  int valid_entries(Port in) const {
    return valid_by_port_[static_cast<size_t>(in)];
  }

  /// Heap bytes of the entry storage (port bytes, handles and leases); zero
  /// until the first reservation allocates it.
  size_t storage_bytes() const {
    return out_.capacity() + handle_.capacity() * sizeof(std::uint16_t) +
           leases_.capacity() * sizeof(Lease);
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

  /// Checkpoint: serialize active size, the lease flag and every valid
  /// entry (sparse — out/owner/stamp per valid slot, port-major in slot
  /// order). The lease store's order is not serialized: restore rebuilds
  /// it in archive order, which preserves behaviour because every reader
  /// reaches a lease through its cell (see expire_older_than).
  void save_state(StateWriter& w) const;
  /// Restores into a table of the same capacity; throws StateError on a
  /// structural mismatch (never aborts — a bad archive means "recompute").
  void restore_state(StateReader& r);

 private:
  /// Port byte of an invalid entry (valid bit clear).
  static constexpr std::uint8_t kFree = 0xFF;
  static_assert(kNumPorts < kFree, "port ids must fit below kFree");

  /// Cold half of a valid entry: read by owner-fenced releases, the lease
  /// sweep and checkpoints, never by lookups.
  struct Lease {
    PacketId owner = 0;  ///< id of the setup that wrote the entry
    Cycle stamp = 0;     ///< last reserve/traversal cycle (lease clock)
    std::uint32_t cell = 0;  ///< the entry's cell, for swap-remove
  };

  /// Allocate both cell columns, all entries free; no-op once allocated.
  void allocate();
  /// Port-major index of (slot, in) in the cell columns.
  size_t cell(int slot, Port in) const {
    return static_cast<size_t>(in) * static_cast<size_t>(capacity_) +
           static_cast<size_t>(slot);
  }
  int wrap(int slot) const { return slot & (active_ - 1); }
  /// Make the free cell `c` a valid entry in -> out with a new lease.
  void occupy(size_t c, Port out, PacketId owner, Cycle stamp);
  /// Clear the valid cell `c` and swap-remove its lease.
  void vacate(size_t c);
  Lease& lease(size_t c) { return leases_[handle_[c]]; }
  const Lease& lease(size_t c) const { return leases_[handle_[c]]; }

  int capacity_;
  int active_;
  bool leased_;
  /// Output port per (input port, slot), kFree when invalid; empty until
  /// allocate(), and never read for a port whose valid count is zero.
  std::vector<std::uint8_t> out_;
  /// Index into leases_ per (input port, slot); meaningful only where valid.
  std::vector<std::uint16_t> handle_;
  /// One lease per valid entry, in no particular order. Capacity is kept
  /// across releases and resets, so steady-state churn never allocates.
  std::vector<Lease> leases_;
  std::array<int, kNumPorts> valid_by_port_{};
};

}  // namespace hybridnoc
