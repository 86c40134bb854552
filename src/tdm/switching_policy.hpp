// The hybrid switching policy, written once: HybridNi (cycle core) and
// FastModel (transfer level) both call it, so a rule changes in both
// engines or in neither. It holds the latency model and congestion signal,
// the CS/PS decision (Sections II-A, V-A2) and the setup policy (II-A..C).
// Mechanism stays per engine: finding the earliest usable window, and how a
// setup travels and retries (config messages with backoff, or a synchronous
// walk over the slot tables). Header-only over common/, so the base network
// interface shares the EWMA without linking the TDM library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace hybridnoc {

/// Zero-load PS latency of a `flits`-flit packet over `hops` links: 5 per
/// hop (3 router pipeline + 2 link), 2 for injection, 5 for the destination
/// router and ejection minus the head's counted hop, tail flits-1 behind.
inline double zero_load_ps_latency(int hops, int flits) {
  return 5.0 * hops + 6.0 + flits;
}

/// The decision's PS estimate for a data packet, with the congestion term
/// over the source's smoothed injection delay.
inline double ps_latency_estimate(const NocConfig& cfg, int hops,
                                  double inject_delay) {
  return zero_load_ps_latency(hops, cfg.ps_data_flits) +
         cfg.congestion_gain * inject_delay;
}

/// Cycles from a circuit head crossing the source crossbar to tail delivery.
inline Cycle cs_flight_cycles(int hops, int nflits) {
  return static_cast<Cycle>(2 * hops + 2 + nflits - 1);
}

/// The congestion signal: each non-config head flit's injection delay,
/// smoothed 0.9/0.1.
inline void smooth_inject_delay(double& ewma, Cycle delay) {
  ewma = 0.9 * ewma + 0.1 * static_cast<double>(delay);
}

/// Shorter messages would be padded out by the fixed circuit transfer, so
/// short (control) traffic always packet-switches.
inline bool circuit_eligible(const NocConfig& cfg, int flits) {
  return flits >= cfg.cs_data_flits;
}

/// Ride a circuit of total latency `cs_latency`? A message with slack (>= 0,
/// Section V-A2) rides when it completes within the slack; others when it
/// is within cs_latency_advantage of the PS estimate.
inline bool take_circuit(const NocConfig& cfg, double cs_latency, int hops,
                         double inject_delay, std::int64_t slack = -1) {
  if (slack >= 0) return cs_latency <= static_cast<double>(slack);
  return cs_latency <=
         cfg.cs_latency_advantage * ps_latency_estimate(cfg, hops, inject_delay);
}

/// Idle for more than `limit` cycles? A future last use (ack in flight) is
/// not idle.
inline bool idle_beyond(Cycle now, Cycle last_used, Cycle limit) {
  return now > last_used && now - last_used > limit;
}

/// An exhausted setup blocks its destination until this cycle.
inline Cycle give_up_cooldown(const NocConfig& cfg, Cycle now) {
  return now + 4 * static_cast<Cycle>(cfg.policy_epoch_cycles);
}

/// True, restarting the epoch at `now`, once the policy epoch begun at
/// `epoch_start` is over; the caller then resets its pair frequencies.
inline bool epoch_boundary(const NocConfig& cfg, Cycle& epoch_start,
                           Cycle now) {
  if (now < epoch_start + static_cast<Cycle>(cfg.policy_epoch_cycles))
    return false;
  epoch_start = now;
  return true;
}

/// Destinations, in key order, of connections idle beyond
/// cfg.path_idle_timeout: retired at an epoch boundary.
template <typename Conns>
void idle_connections(const NocConfig& cfg, const Conns& conns, Cycle now,
                      std::vector<NodeId>& out) {
  out.clear();
  for (const auto& [dst, conn] : conns) {
    if (idle_beyond(now, conn.last_used, cfg.path_idle_timeout))
      out.push_back(dst);
  }
}

/// A setup's slot at its source router: a fallback draw, then up to 8
/// candidates, the first with a free local input (`local_free(slot)`) wins.
/// A retry passes the failed slot as `avoid_slot` and always gets another
/// (Section II-B). The draw order fixes the run for a seed.
template <typename LocalFree>
int choose_setup_slot(Rng& rng, int slots, int avoid_slot,
                      LocalFree&& local_free) {
  const auto S = static_cast<std::uint64_t>(slots);
  int slot = static_cast<int>(rng.uniform_int(S));
  if (slot == avoid_slot) slot = -1;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int cand = static_cast<int>(rng.uniform_int(S));
    if (cand == avoid_slot) continue;
    if (slot < 0) slot = cand;
    if (local_free(cand)) return cand;
  }
  // Every draw hit avoid_slot: pick a distinct slot directly (S >= 4).
  if (slot < 0)
    slot = (avoid_slot + 1 + static_cast<int>(rng.uniform_int(S - 1))) % slots;
  return slot;
}

/// Request a circuit src -> dst if the policy admits one. `force` skips the
/// frequency threshold (a sharing counter saturated, or a faulty circuit is
/// rebuilt); `supplement` adds a window to an oversubscribed connection
/// (Section II-C), otherwise no connection may exist yet. The guards are a
/// pure conjunction, evaluated lazily, cheapest rejection first: the
/// frequency test, on a counter the caller just bumped, fails for almost
/// every packet (the fast model's hot path). `host` provides
/// pair_count(dst), setup_pending(dst, now), cooling_down(dst, now),
/// local_occupancy(), connections() (ordered map to entries with
/// window_count() and last_used), retire(it, now) and start_setup(dst, now).
template <typename Host>
void maybe_setup(const NocConfig& cfg, Host& host, NodeId src, NodeId dst,
                 Cycle now, bool force, bool supplement) {
  if (dst == src) return;
  if (!force && host.pair_count(dst) < cfg.path_freq_threshold) return;
  if (host.setup_pending(dst, now)) return;
  auto& conns = host.connections();
  const auto it = conns.find(dst);
  if (supplement) {
    if (it == conns.end() ||
        it->second.window_count() >= cfg.max_windows_per_pair)
      return;
    // Breadth before depth: a crowded local table serves new pairs first.
    if (host.local_occupancy() > 0.5) return;
  } else if (it != conns.end()) {
    return;
  }
  if (host.cooling_down(dst, now)) return;
  // "Once a connection has been idled for a long period, it becomes the
  // candidate to be destroyed when new setup requests come in."
  if (host.local_occupancy() > 0.5 && !conns.empty()) {
    const auto idlest = std::min_element(
        conns.begin(), conns.end(), [](const auto& a, const auto& b) {
          return a.second.last_used < b.second.last_used;
        });
    if (idle_beyond(now, idlest->second.last_used,
                    static_cast<Cycle>(cfg.policy_epoch_cycles)))
      host.retire(idlest, now);
  }
  host.start_setup(dst, now);
}

}  // namespace hybridnoc
