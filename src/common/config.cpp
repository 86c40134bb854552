#include "common/config.hpp"

#include <sstream>

#include "common/input.hpp"

namespace hybridnoc {

// A rule without its own message names itself: "config requires <expr>".
#define HN_CONFIG_REQUIRES(expr) check_input(expr, "config requires " #expr)

const NocConfig& NocConfig::validate() const {
  check_input(k >= 2,
              "mesh radix k must be >= 2: a 1-node mesh has no links, and "
              "the tornado/hotspot patterns are degenerate on it");
  check_input(k <= kMaxMeshRadix,
              "mesh radix k must be at most 46340: k * k node ids must fit "
              "an int");
  HN_CONFIG_REQUIRES(num_vcs >= 1);
  check_input(num_vcs <= 32,
              "num_vcs must be at most 32, the width of every VC bitmask");
  HN_CONFIG_REQUIRES(vc_buffer_depth >= 1);
  check_input(vc_buffer_depth <= kMaxVcBufferDepth,
              "vc_buffer_depth must be at most 1024 flits");
  // Each SDM plane is a one-VC network whose VC holds the whole port's
  // storage (sdm_network.cpp), so its depth is bounded the same way.
  check_input(arch != RouterArch::HybridSdm ||
                  vc_buffer_depth * num_vcs <= kMaxVcBufferDepth,
              "an SDM plane's VC holds vc_buffer_depth x num_vcs flits, at most 1024");
  HN_CONFIG_REQUIRES(ps_data_flits >= 1 && cs_data_flits >= 1 && config_flits >= 1);
  HN_CONFIG_REQUIRES(slot_table_size >= 4);
  check_input((slot_table_size & (slot_table_size - 1)) == 0,
              "slot table size must be a power of two (modulo-S arithmetic)");
  check_input(slot_table_size <= kMaxSlotTableSize,
              "slot table size must be at most 8192 (16-bit lease handles)");
  HN_CONFIG_REQUIRES(initial_active_slots >= 4 && initial_active_slots <= slot_table_size);
  HN_CONFIG_REQUIRES((initial_active_slots & (initial_active_slots - 1)) == 0);
  HN_CONFIG_REQUIRES(reservation_threshold > 0.0 && reservation_threshold <= 1.0);
  HN_CONFIG_REQUIRES(path_freq_threshold >= 1);
  HN_CONFIG_REQUIRES(policy_epoch_cycles >= 1);
  HN_CONFIG_REQUIRES(max_setup_retries >= 0);
  HN_CONFIG_REQUIRES(cs_latency_advantage > 0.0);
  HN_CONFIG_REQUIRES(dlt_entries >= 1);
  HN_CONFIG_REQUIRES(vc_threshold_high > vc_threshold_low);
  HN_CONFIG_REQUIRES(vc_latency_high > vc_latency_low && vc_latency_low >= 0.0);
  HN_CONFIG_REQUIRES(vc_gate_epoch_cycles >= 1);
  HN_CONFIG_REQUIRES(min_active_vcs >= 1 && min_active_vcs <= num_vcs);
  HN_CONFIG_REQUIRES(sdm_planes >= 2 && channel_bytes % sdm_planes == 0);
  HN_CONFIG_REQUIRES(reservation_duration() < slot_table_size);
  HN_CONFIG_REQUIRES(pending_setup_timeout_cycles >= 1);
  HN_CONFIG_REQUIRES(link_ber >= 0.0 && link_ber < 1.0);
  HN_CONFIG_REQUIRES(retx_timeout_cycles >= 1 && max_retx_attempts >= 0);
  HN_CONFIG_REQUIRES(retx_backoff_cap_cycles >= retx_timeout_cycles);
  HN_CONFIG_REQUIRES(cs_fail_threshold >= 1);
  HN_CONFIG_REQUIRES(setup_backoff_base_cycles == 0 ||
                     setup_backoff_cap_cycles >= setup_backoff_base_cycles);
  HN_CONFIG_REQUIRES(tick_threads >= 1);
  check_input(tick_threads <= kMaxTickThreads,
              "tick_threads must be at most 256, one worker thread each");
  check_input(tick_threads == 1 || !vc_power_gating,
              "the parallel tick engine requires vc_power_gating off: VC "
              "gating announcements cross router boundaries without a "
              "pipelined channel in between");
  return *this;
}

std::string NocConfig::summary() const {
  std::ostringstream os;
  os << router_arch_name(arch) << " k=" << k << " vcs=" << num_vcs
     << " depth=" << vc_buffer_depth;
  if (arch == RouterArch::HybridTdm) {
    os << " slots=" << slot_table_size
       << (dynamic_slot_sizing ? " dyn-slots" : "")
       << (time_slot_stealing ? " stealing" : "")
       << (hitchhiker_sharing ? " hitchhiker" : "")
       << (vicinity_sharing ? " vicinity" : "");
  }
  if (arch == RouterArch::HybridSdm) os << " planes=" << sdm_planes;
  if (vc_power_gating) os << " vc-gating";
  if (tick_threads > 1) os << " threads=" << tick_threads;
  return os.str();
}

NocConfig NocConfig::packet_vc4(int k) {
  NocConfig c;
  c.k = k;
  c.arch = RouterArch::PacketSwitched;
  return c;
}

NocConfig NocConfig::hybrid_tdm_vc4(int k) {
  NocConfig c;
  c.k = k;
  c.arch = RouterArch::HybridTdm;
  // Paper: 128-entry tables at 36 nodes, 256 at >= 64 nodes (Section IV-D).
  c.slot_table_size = (k * k >= 64) ? 256 : 128;
  return c;
}

NocConfig NocConfig::hybrid_tdm_vct(int k) {
  NocConfig c = hybrid_tdm_vc4(k);
  c.vc_power_gating = true;
  return c;
}

NocConfig NocConfig::hybrid_sdm_vc4(int k) {
  NocConfig c;
  c.k = k;
  c.arch = RouterArch::HybridSdm;
  return c;
}

NocConfig NocConfig::hybrid_tdm_hop_vc4(int k) {
  NocConfig c = hybrid_tdm_vc4(k);
  c.hitchhiker_sharing = true;
  c.vicinity_sharing = true;
  // Section V-B3: "path sharing enables smaller slot tables being used" —
  // shared paths satisfy the frequent connections with half the table,
  // halving both the slot wait and the table's leakage.
  c.slot_table_size /= 2;
  return c;
}

NocConfig NocConfig::hybrid_tdm_hop_vct(int k) {
  NocConfig c = hybrid_tdm_hop_vc4(k);
  c.vc_power_gating = true;
  return c;
}

}  // namespace hybridnoc
