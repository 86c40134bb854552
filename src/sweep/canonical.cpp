#include "sweep/canonical.hpp"

#include "common/fileio.hpp"
#include "common/state_io.hpp"

namespace hybridnoc::sweep {

namespace {

// Every NocConfig field, declaration order. A new config knob MUST be added
// here (and kCanonicalVersion bumped): a knob missing from the canonical
// form would let two behaviorally different points collide on one cache
// entry.
void put_config(StateWriter& w, const NocConfig& cfg) {
  w.fields(cfg.k, cfg.num_vcs, cfg.vc_buffer_depth, cfg.channel_bytes,
           cfg.arch, cfg.ps_data_flits, cfg.cs_data_flits, cfg.config_flits,
           cfg.ctrl_packet_flits, cfg.slot_table_size, cfg.time_slot_stealing,
           cfg.reservation_threshold, cfg.dynamic_slot_sizing,
           cfg.initial_active_slots, cfg.resize_failure_threshold,
           cfg.path_freq_threshold, cfg.policy_epoch_cycles,
           cfg.max_setup_retries, cfg.max_windows_per_pair,
           cfg.path_idle_timeout, cfg.pending_setup_timeout_cycles,
           cfg.reservation_lease_cycles, cfg.cs_latency_advantage,
           cfg.congestion_gain, cfg.hitchhiker_sharing, cfg.vicinity_sharing,
           cfg.dlt_entries, cfg.vc_power_gating, cfg.vc_gate_metric,
           cfg.vc_threshold_high, cfg.vc_threshold_low, cfg.vc_latency_high,
           cfg.vc_latency_low, cfg.vc_gate_epoch_cycles, cfg.min_active_vcs,
           cfg.sdm_planes, cfg.link_ber, cfg.fault_seed, cfg.e2e_recovery,
           cfg.retx_timeout_cycles, cfg.retx_backoff_cap_cycles,
           cfg.max_retx_attempts, cfg.cs_fail_threshold,
           cfg.watchdog_stall_cycles, cfg.setup_backoff_base_cycles,
           cfg.setup_backoff_cap_cycles);
  // tick_threads is proven bit-identical to the serial engine (thread
  // equivalence suite), so it is deliberately NOT part of a point's
  // identity: a cache filled at one thread count is valid at another.
  w.field(cfg.seed);
}

void put_params(StateWriter& w, const RunParams& p) {
  w.fields(static_cast<std::uint8_t>(p.pattern), p.injection_rate,
           p.warmup_packets, p.warmup_min_cycles, p.seed, p.measure_packets,
           p.max_cycles, p.latency_cap, p.fidelity);
}

}  // namespace

std::string canonical_bytes(const NocConfig& cfg, const RunParams& params) {
  StateWriter w;
  w.u32(kCanonicalVersion);
  put_config(w, cfg);
  put_params(w, params);
  return w.seal();
}

std::uint64_t config_hash(const NocConfig& cfg, const RunParams& params) {
  return fnv1a64(canonical_bytes(cfg, params));
}

}  // namespace hybridnoc::sweep
