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
  w.i32(cfg.k);
  w.i32(cfg.num_vcs);
  w.i32(cfg.vc_buffer_depth);
  w.i32(cfg.channel_bytes);
  w.u8(static_cast<std::uint8_t>(cfg.arch));
  w.i32(cfg.ps_data_flits);
  w.i32(cfg.cs_data_flits);
  w.i32(cfg.config_flits);
  w.i32(cfg.ctrl_packet_flits);
  w.i32(cfg.slot_table_size);
  w.b(cfg.time_slot_stealing);
  w.f64(cfg.reservation_threshold);
  w.b(cfg.dynamic_slot_sizing);
  w.i32(cfg.initial_active_slots);
  w.i32(cfg.resize_failure_threshold);
  w.i32(cfg.path_freq_threshold);
  w.i32(cfg.policy_epoch_cycles);
  w.i32(cfg.max_setup_retries);
  w.i32(cfg.max_windows_per_pair);
  w.u64(cfg.path_idle_timeout);
  w.u64(cfg.pending_setup_timeout_cycles);
  w.u64(cfg.reservation_lease_cycles);
  w.f64(cfg.cs_latency_advantage);
  w.f64(cfg.congestion_gain);
  w.b(cfg.hitchhiker_sharing);
  w.b(cfg.vicinity_sharing);
  w.i32(cfg.dlt_entries);
  w.b(cfg.vc_power_gating);
  w.u8(static_cast<std::uint8_t>(cfg.vc_gate_metric));
  w.f64(cfg.vc_threshold_high);
  w.f64(cfg.vc_threshold_low);
  w.f64(cfg.vc_latency_high);
  w.f64(cfg.vc_latency_low);
  w.i32(cfg.vc_gate_epoch_cycles);
  w.i32(cfg.min_active_vcs);
  w.i32(cfg.sdm_planes);
  w.f64(cfg.link_ber);
  w.u64(cfg.fault_seed);
  w.b(cfg.e2e_recovery);
  w.u64(cfg.retx_timeout_cycles);
  w.u64(cfg.retx_backoff_cap_cycles);
  w.i32(cfg.max_retx_attempts);
  w.i32(cfg.cs_fail_threshold);
  w.u64(cfg.watchdog_stall_cycles);
  w.u64(cfg.setup_backoff_base_cycles);
  w.u64(cfg.setup_backoff_cap_cycles);
  // tick_threads is proven bit-identical to the serial engine (thread
  // equivalence suite), so it is deliberately NOT part of a point's
  // identity: a cache filled at one thread count is valid at another.
  w.u64(cfg.seed);
}

void put_warmup_params(StateWriter& w, const RunParams& p) {
  w.u8(static_cast<std::uint8_t>(p.pattern));
  w.f64(p.injection_rate);
  w.u64(p.warmup_packets);
  w.u64(p.warmup_min_cycles);
  w.u64(p.seed);
}

void put_params(StateWriter& w, const RunParams& p) {
  put_warmup_params(w, p);
  w.u64(p.measure_packets);
  w.u64(p.max_cycles);
  w.f64(p.latency_cap);
  w.u8(static_cast<std::uint8_t>(p.fidelity));
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

std::uint64_t warmup_hash(const NocConfig& cfg, const RunParams& params) {
  StateWriter w;
  w.u32(kCanonicalVersion);
  put_config(w, cfg);
  put_warmup_params(w, params);
  return fnv1a64(w.seal());
}

}  // namespace hybridnoc::sweep
