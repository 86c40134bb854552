// Network and policy configuration. Defaults reproduce Table I of the paper:
// 36-node 2D mesh, 16-byte channels, 4 VCs x 5-flit buffers, 128-entry slot
// tables, 1-flit config packets, 4-flit circuit-switched packets, 5-flit
// packet-switched packets.
#pragma once

#include <cstdint>
#include <string>

namespace hybridnoc {

/// Which router microarchitecture the network instantiates.
enum class RouterArch : std::uint8_t {
  PacketSwitched,  ///< canonical VC wormhole router (baseline Packet-VC4)
  HybridTdm,       ///< the paper's TDM hybrid-switched router
  HybridSdm,       ///< Jerger et al. SDM hybrid baseline
};

inline const char* router_arch_name(RouterArch a) {
  switch (a) {
    case RouterArch::PacketSwitched: return "Packet";
    case RouterArch::HybridTdm: return "Hybrid-TDM";
    case RouterArch::HybridSdm: return "Hybrid-SDM";
  }
  return "?";
}

struct NocConfig {
  // --- topology / canonical router (Table I) ---
  int k = 6;                ///< mesh is k x k
  /// Largest radix validate() accepts: k * k node ids must fit an int.
  static constexpr int kMaxMeshRadix = 46340;
  /// Most tick_threads validate() accepts: the engine starts one worker
  /// per shard.
  static constexpr int kMaxTickThreads = 256;
  int num_vcs = 4;          ///< virtual channels per input port
  int vc_buffer_depth = 5;  ///< flits per VC
  /// Deepest VC buffer validate() accepts: a router allocates
  /// kNumPorts x num_vcs x depth buffer slots at its first flit.
  static constexpr int kMaxVcBufferDepth = 1024;
  int channel_bytes = 16;

  RouterArch arch = RouterArch::PacketSwitched;

  // --- packet geometry (Table I) ---
  int ps_data_flits = 5;  ///< packet-switched data packet (header + 64B line)
  int cs_data_flits = 4;  ///< circuit-switched data packet (no header needed)
  int config_flits = 1;   ///< setup/teardown/ack messages
  int ctrl_packet_flits = 1;  ///< request/coherence control messages

  // --- TDM slot tables (Sections II-B/II-C) ---
  int slot_table_size = 128;
  /// Largest slot table validate() accepts: a valid entry reaches its lease
  /// through a 16-bit handle, and a table holds up to kNumPorts x S entries.
  static constexpr int kMaxSlotTableSize = 8192;
  bool time_slot_stealing = true;
  /// Reservations are refused when valid-entry occupancy exceeds this
  /// fraction, preventing packet-switched starvation (paper uses 0.9).
  double reservation_threshold = 0.9;

  // --- dynamic time-division granularity (Section II-C) ---
  bool dynamic_slot_sizing = false;
  int initial_active_slots = 16;
  /// Setup failures within one epoch that trigger a table-size doubling.
  int resize_failure_threshold = 32;

  // --- path establishment policy (Section II-B) ---
  /// Data packets to one destination within an epoch that make the pair
  /// "frequently communicating" and worth a circuit.
  int path_freq_threshold = 6;
  int policy_epoch_cycles = 1024;
  int max_setup_retries = 4;
  /// Maximum reservation windows one source-destination pair may hold.
  /// This is the "time-division granularity" of Section II-C: each window
  /// is reservation_duration() slots, so with S slots a pair may own up to
  /// max_windows_per_pair * duration / S of the path bandwidth. A source
  /// requests a supplementary window when its existing windows are too busy
  /// to carry the pair's circuit-eligible traffic.
  int max_windows_per_pair = 12;
  /// A connection unused for this many cycles becomes a teardown candidate
  /// when new setups need room.
  std::uint64_t path_idle_timeout = 8192;
  /// A setup whose ack has not returned after this many cycles is presumed
  /// lost: its destination is unblocked for new setups and a full-path
  /// teardown reclaims whatever prefix the lost setup reserved.
  std::uint64_t pending_setup_timeout_cycles = 4096;
  /// Router-side reservation lease: slot-table entries that carry no circuit
  /// traffic for this many cycles are reclaimed. This is the backstop that
  /// recovers reservations orphaned by lost teardowns; it is sized well
  /// beyond path_idle_timeout so the source always retires an idle
  /// connection long before its entries expire. 0 disables expiry.
  std::uint64_t reservation_lease_cycles = 32768;

  // --- switching decision (Sections II-A / V-A2) ---
  /// A message circuit-switches only if slot-wait + circuit flight time is
  /// below this multiple of the NI's estimate of packet-switched latency
  /// toward that destination.
  double cs_latency_advantage = 1.2;
  /// Weight of the NI's EWMA injection delay in the packet-switched latency
  /// estimate (injection backpressure correlates with network congestion).
  double congestion_gain = 3.0;

  // --- path sharing (Section III-A) ---
  bool hitchhiker_sharing = false;
  bool vicinity_sharing = false;
  int dlt_entries = 8;  ///< Destination Lookup Table capacity per node

  // --- aggressive VC power gating (Section III-B) ---
  bool vc_power_gating = false;
  /// Utilization: compare the busy-VC fraction against the thresholds (the
  /// paper's scheme). Latency: compare the mean buffered-flit residency in
  /// cycles instead — the "more accurate metric, for example, packet
  /// latency" the paper's Section V-B4 proposes as future work.
  enum class VcGateMetric : std::uint8_t { Utilization, Latency };
  VcGateMetric vc_gate_metric = VcGateMetric::Utilization;
  double vc_threshold_high = 0.35;
  double vc_threshold_low = 0.06;
  /// Thresholds for the latency metric, in cycles of mean buffer residency.
  double vc_latency_high = 6.0;
  double vc_latency_low = 3.2;
  int vc_gate_epoch_cycles = 512;
  /// Two VCs stay on so one long packet cannot head-of-line block a port.
  int min_active_vcs = 2;

  // --- SDM baseline ---
  int sdm_planes = 4;  ///< physical link planes (channel_bytes / planes each)

  // --- data-plane fault tolerance (everything off by default: a zero-fault
  // run is bit-identical to a build without the fault layer) ---
  /// Per-flit, per-link transient corruption probability (bit-error rate at
  /// flit granularity). > 0 auto-installs the FaultModel on the network.
  double link_ber = 0.0;
  /// Seed for the fault model's stateless per-traversal corruption hash
  /// (independent of `seed` so traffic and faults can be varied separately).
  std::uint64_t fault_seed = 1;
  /// End-to-end recovery at the NI: CRC squash of corrupted packets,
  /// per-packet acks from the destination, and capped-exponential-backoff
  /// retransmission at the source.
  bool e2e_recovery = false;
  /// First retransmission fires this long after injection; each further
  /// attempt doubles the wait (plus seeded jitter) up to the cap.
  std::uint64_t retx_timeout_cycles = 256;
  std::uint64_t retx_backoff_cap_cycles = 4096;
  /// Retransmission attempts before the source declares the packet failed.
  int max_retx_attempts = 6;
  /// Consecutive retransmissions on one circuit (the missed-slot streak)
  /// that make the source tear the circuit down and retry setup on a
  /// fault-aware route.
  int cs_fail_threshold = 3;
  /// Starvation watchdog: packets older than this (queued or unacked) are
  /// flagged into the degradation report. 0 disables the watchdog.
  std::uint64_t watchdog_stall_cycles = 0;
  /// Setup-retry backoff after a reservation conflict: retry n waits
  /// base << n cycles (plus seeded jitter), capped. 0 = legacy immediate
  /// retry with a different slot id.
  std::uint64_t setup_backoff_base_cycles = 0;
  std::uint64_t setup_backoff_cap_cycles = 1024;

  // --- simulation engine ---
  /// Shards of the sharded tick engine (noc/parallel_engine.hpp): the mesh
  /// is split into contiguous node-range shards, one thread each, and every
  /// cycle runs compute -> barrier -> commit, with cross-shard channel
  /// writes staged so results are bit-identical for any thread count
  /// (asserted by the thread-equivalence property tests). 1 (the default)
  /// is the one-shard case: the same engine on the caller's thread, with
  /// no worker thread, barrier or staging. Values above 1 are incompatible
  /// with vc_power_gating, whose cross-router VC announcements are read
  /// mid-cycle without a channel in between.
  int tick_threads = 1;

  std::uint64_t seed = 1;

  int num_nodes() const { return k * k; }

  /// Slots one reservation occupies: data flits, +1 header when
  /// vicinity-sharing is on (Section III-A2).
  int reservation_duration() const {
    return cs_data_flits + (vicinity_sharing ? 1 : 0);
  }

  /// Throws InputError naming the first inconsistent parameter; returns
  /// *this, so a constructor can validate before it builds anything.
  const NocConfig& validate() const;

  /// Human-readable one-line summary for bench headers.
  std::string summary() const;

  // --- named configurations used throughout the evaluation ---
  static NocConfig packet_vc4(int k = 6);      ///< baseline Packet-VC4
  static NocConfig hybrid_tdm_vc4(int k = 6);  ///< Hybrid-TDM-VC4
  static NocConfig hybrid_tdm_vct(int k = 6);  ///< Hybrid-TDM-VCt (+VC gating)
  static NocConfig hybrid_sdm_vc4(int k = 6);  ///< Hybrid-SDM-VC4
  /// Hybrid-TDM-hop-VC4: + hitchhiker & vicinity sharing.
  static NocConfig hybrid_tdm_hop_vc4(int k = 6);
  /// Hybrid-TDM-hop-VCt: + sharing + aggressive VC power gating.
  static NocConfig hybrid_tdm_hop_vct(int k = 6);
};

}  // namespace hybridnoc
