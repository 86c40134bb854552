// Destination Lookup Table (Section III-A1). Each node on a circuit-switched
// path stores, for every connection passing through its router: the
// connection's destination, the time slot at which circuit flits cross this
// router's crossbar, the (input, output) ports of the slot-table entries,
// and a 2-bit saturating failure counter. When the counter saturates at '10'
// (two consecutive sharing failures) the node gives up on sharing, removes
// the entry and requests a dedicated circuit of its own.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace hybridnoc {

class StateWriter;
class StateReader;

struct DltEntry {
  NodeId dest = kInvalidNode;
  int slot = 0;      ///< crossbar slot at this node's router
  int duration = 0;  ///< reserved consecutive slots
  Port in = Port::Local;
  Port out = Port::Local;
  std::uint8_t fail_count = 0;  ///< 2-bit saturating counter
  Cycle last_used = 0;          ///< for LRU replacement
  /// Slot-table generation the underlying reservation was made under; an
  /// entry from an older generation refers to wiped slots and must never be
  /// ridden (the table is cleared on reset, so this is a belt-and-braces
  /// check at the point of use).
  std::uint64_t generation = 0;
  /// A setup passing through only makes the entry provisional — the setup
  /// may still fail downstream, leaving a partial path that must never be
  /// ridden. The entry activates when the local router first forwards a
  /// circuit flit on the reservation (proof the circuit completed).
  bool active = false;
};

class DestinationLookupTable {
 public:
  /// `num_slots` is the slot-table size: every recorded slot lies below it;
  /// every recorded destination lies below `num_nodes`.
  DestinationLookupTable(int capacity, int num_slots, int num_nodes);

  /// Record a connection observed passing through the local router
  /// (replaces an existing entry for the same destination; LRU-evicts when
  /// full). Resets the failure counter. `generation` is the slot-table
  /// generation the reservation was made under.
  void observe(NodeId dest, int slot, int duration, Port in, Port out,
               Cycle now, std::uint64_t generation = 0);

  /// Active entry whose path leads to `dest`, if any.
  std::optional<DltEntry> find(NodeId dest) const;

  /// Activate the provisional entry riding (slot, in); called when the
  /// local router forwards circuit traffic on that reservation.
  void activate_route(int slot, Port in);

  /// Active entry whose destination is adjacent to `dest` (combined
  /// hitchhiker+vicinity sharing). `adjacent` is supplied by the caller.
  template <typename AdjFn>
  std::optional<DltEntry> find_adjacent(NodeId dest, AdjFn adjacent) const {
    for (const auto& e : entries_) {
      if (e.dest != kInvalidNode && e.active && adjacent(e.dest, dest)) return e;
    }
    return std::nullopt;
  }

  void touch(NodeId dest, Cycle now);

  /// Sharing toward `dest` failed (contention or stale path). Returns true
  /// if the 2-bit counter saturated — the entry is then removed and the
  /// caller should fall back to a dedicated path setup (Section III-A1).
  bool record_failure(NodeId dest);

  /// Invalidate the entry riding (slot, in) — called when a teardown removes
  /// the underlying reservation at the local router.
  void invalidate_route(int slot, Port in);
  void remove(NodeId dest);
  void clear();

  int size() const;
  int capacity() const { return capacity_; }
  std::uint64_t accesses() const { return accesses_; }

  /// Checkpoint: every entry in vector order (positions matter — the linear
  /// scans' first-match order and LRU fill order must survive a restore).
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  template <typename Ar, typename Self>
  static void layout(Ar& ar, Self& self);
  int index_of(NodeId dest) const;

  int capacity_;
  int num_slots_;
  int num_nodes_;
  /// `capacity` entries from the first observe() on; empty before it, which
  /// every lookup reads as a table of empty entries. Only a node on a
  /// path-sharing network ever observes a connection, so the rest hold none.
  std::vector<DltEntry> entries_;
  mutable std::uint64_t accesses_ = 0;
};

}  // namespace hybridnoc
