// Event counters of the fabric's components: which events an NI or a router
// counts is decided here, once. Each component owns one fixed block indexed
// by an enum; the network sums the blocks in one pass (Network::ni_counters,
// Network::router_counters), a checkpoint writes a block as one loop, and
// tools print a block through its name table.
//
// Counters are monotone event counts. Gauges (queue depths, outstanding
// tables, valid slot entries) and epoch state (the VC-gating integrals) are
// not counters and stay on their components.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>  // std::size
#include <string>

namespace hybridnoc {

/// Events a network interface counts. The first group is the base NI's;
/// the second is counted only by the hybrid NI (zero on packet-switched
/// NIs).
enum class NiCounter : std::uint8_t {
  DataPacketsSent,       ///< workload data packets started (not reinjected)
  DataPacketsDelivered,  ///< data packets handed to the deliver handler
  PsDataFlits,           ///< data flits injected packet-switched
  CsDataFlits,           ///< data flits injected circuit-switched
  ConfigFlits,           ///< setup/teardown/ack flits injected
  Retransmits,           ///< end-to-end retransmission clones sent
  RetxGiveUps,           ///< packets abandoned after max_retx_attempts
  CrcSquashedPackets,    ///< assembled packets squashed for a dirty flit
  E2eAcksSent,
  E2eDuplicatesDropped,  ///< duplicate copies dropped at the destination
  UnreachableFailed,     ///< packets failed: destination partitioned off
  WatchdogFlagged,       ///< packets the starvation watchdog flagged
  // --- hybrid NI ---
  SetupsSent,
  SetupFailures,       ///< failure acks received
  CsPackets,           ///< packets scheduled onto a circuit (any kind)
  HitchhikePackets,
  VicinityPackets,
  HitchhikeBounces,    ///< hitchhikers bounced back to packet switching
  VicinityHopoffs,     ///< vicinity riders re-injected toward their target
  CsRejectedNoWindow,  ///< circuit attempts with no free injection window
  CsRejectedLatency,   ///< circuit attempts whose slot wait would hurt
  StaleConfigDrops,    ///< config messages predating a slot-table reset
  PendingTimeouts,     ///< pending setups whose ack never returned
  OrphanAckTeardowns,  ///< success acks with no pending entry, released
  DuplicateAcks,       ///< success acks for an already-installed window
  CsFaultTeardowns,    ///< circuits torn down by the liveness monitor
  SetupGiveUps,        ///< setup retries abandoned into cooldown
  kCount
};

/// Events a router counts; the second group only on hybrid routers.
enum class RouterCounter : std::uint8_t {
  FlitsTraversed,   ///< packet-switched crossbar traversals
  CrcFlaggedFlits,  ///< arrivals whose per-hop CRC flagged corruption
  // --- hybrid router ---
  CsFlitsTraversed,
  PsSteals,             ///< PS flits that used an idle reserved slot
  StaleConfigDrops,     ///< setups/teardowns predating a table reset
  ExpiredReservations,  ///< slot entries reclaimed by lease expiry
  CorruptConfigDrops,   ///< config messages a link fault corrupted
  kCount
};

template <typename E>
struct CounterNames;

template <>
struct CounterNames<NiCounter> {
  static constexpr const char* kNames[] = {
      "data_packets_sent",    "data_packets_delivered", "ps_data_flits",
      "cs_data_flits",        "config_flits",           "retransmits",
      "retx_give_ups",        "crc_squashed_packets",   "e2e_acks_sent",
      "e2e_duplicates_dropped", "unreachable_failed",   "watchdog_flagged",
      "setups_sent",          "setup_failures",         "cs_packets",
      "hitchhike_packets",    "vicinity_packets",       "hitchhike_bounces",
      "vicinity_hopoffs",     "cs_rejected_no_window",  "cs_rejected_latency",
      "stale_config_drops",   "pending_timeouts",       "orphan_ack_teardowns",
      "duplicate_acks",       "cs_fault_teardowns",     "setup_give_ups",
  };
};
static_assert(std::size(CounterNames<NiCounter>::kNames) ==
                  static_cast<std::size_t>(NiCounter::kCount),
              "one name per NiCounter");

template <>
struct CounterNames<RouterCounter> {
  static constexpr const char* kNames[] = {
      "flits_traversed",      "crc_flagged_flits",    "cs_flits_traversed",
      "ps_steals",            "stale_config_drops",   "expired_reservations",
      "corrupt_config_drops",
  };
};
static_assert(std::size(CounterNames<RouterCounter>::kNames) ==
                  static_cast<std::size_t>(RouterCounter::kCount),
              "one name per RouterCounter");

/// One component's counter block (or a sum of blocks). `block[E::X]++`
/// compiles to the same constant-offset increment as a named member.
template <typename E>
struct Counters {
  static constexpr std::size_t kSize = static_cast<std::size_t>(E::kCount);

  std::array<std::uint64_t, kSize> n{};

  std::uint64_t& operator[](E e) { return n[static_cast<std::size_t>(e)]; }
  std::uint64_t operator[](E e) const { return n[static_cast<std::size_t>(e)]; }
  static const char* name(std::size_t i) { return CounterNames<E>::kNames[i]; }

  Counters& operator+=(const Counters& o) {
    for (std::size_t i = 0; i < kSize; ++i) n[i] += o.n[i];
    return *this;
  }
  bool operator==(const Counters&) const = default;
};

using NiCounters = Counters<NiCounter>;
using RouterCounters = Counters<RouterCounter>;

/// One "<prefix>.<name>  <value>" line per counter of `c` (the tools' dump).
template <typename E>
void print_counters(std::FILE* out, const char* prefix, const Counters<E>& c) {
  for (std::size_t i = 0; i < Counters<E>::kSize; ++i) {
    const std::string name = std::string(prefix) + "." + Counters<E>::name(i);
    std::fprintf(out, "%-30s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(c.n[i]));
  }
}

/// "name: a vs b" for the first counter where two blocks differ, or "" when
/// they are equal — the diagnostic the equivalence suites print.
template <typename E>
std::string first_difference(const Counters<E>& a, const Counters<E>& b) {
  for (std::size_t i = 0; i < Counters<E>::kSize; ++i) {
    if (a.n[i] != b.n[i]) {
      return std::string(Counters<E>::name(i)) + ": " + std::to_string(a.n[i]) +
             " vs " + std::to_string(b.n[i]);
    }
  }
  return {};
}

}  // namespace hybridnoc
