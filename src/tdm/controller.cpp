#include "tdm/controller.hpp"

#include "common/state_io.hpp"

namespace hybridnoc {

TdmController::TdmController(const NocConfig& cfg)
    : cfg_(cfg),
      active_slots_(cfg.dynamic_slot_sizing ? cfg.initial_active_slots
                                            : cfg.slot_table_size) {}

void TdmController::tick(Cycle now) {
  if (reset_pending_) {
    // Only circuit-switched flits must drain: they physically need their
    // reserved slots. Config messages keep flowing — they carry the table
    // generation and are discarded wherever they arrive stale.
    const bool quiet =
        cs_in_flight_ == 0 && (!quiesced_check_ || quiesced_check_());
    if (quiet) {
      if (active_slots_ < cfg_.slot_table_size) {
        active_slots_ *= 2;
        ++resizes_;
      }
      ++generation_;
      if (reset_hook_) reset_hook_(active_slots_);
      reset_pending_ = false;
      failures_ = 0;
      successes_ = 0;
      epoch_start_ = now;
    }
    return;
  }

  const auto period = static_cast<Cycle>(cfg_.policy_epoch_cycles);
  // Re-anchor after fast-forwarded idle stretches. Skipped boundaries were
  // no-ops: next_event() pins the network to every boundary with non-zero
  // counters or an armed resize heuristic, so anything skipped would only
  // have folded zeros and advanced epoch_start_. The `now - 1` keeps a
  // boundary landing exactly on this cycle processable below.
  if (now > epoch_start_) epoch_start_ += period * ((now - 1 - epoch_start_) / period);

  if (now < epoch_start_ + period) return;
  if (cfg_.dynamic_slot_sizing && active_slots_ < cfg_.slot_table_size &&
      failures_ >= static_cast<std::uint64_t>(cfg_.resize_failure_threshold)) {
    reset_pending_ = true;  // quiesce, then grow
  }
  failures_ = 0;
  successes_ = 0;
  epoch_start_ = now;
}

Cycle TdmController::next_event(Cycle now) const {
  // Pending reset: poll quiescence every cycle, like the per-cycle tick.
  if (reset_pending_) return now + 1;
  const bool boundary_matters =
      failures_ > 0 || successes_ > 0 ||
      (cfg_.dynamic_slot_sizing && active_slots_ < cfg_.slot_table_size &&
       failures_ >= static_cast<std::uint64_t>(cfg_.resize_failure_threshold));
  if (!boundary_matters) return kCycleNever;
  const auto period = static_cast<Cycle>(cfg_.policy_epoch_cycles);
  return epoch_start_ + period * ((now - epoch_start_) / period + 1);
}

template <typename Ar, typename Self>
void TdmController::layout(Ar& ar, Self& self) {
  ar.section("tdm_controller");
  ar.ranged(self.active_slots_, 1, self.cfg_.slot_table_size,
            "controller active-slot count out of range");
  ar.fields(self.generation_, self.failures_, self.successes_,
            self.reset_pending_, self.epoch_start_, self.resizes_);
}

void TdmController::save_state(StateWriter& w) const {
  HN_CHECK_MSG(cs_in_flight() == 0 && config_in_flight() == 0 &&
                   nis_with_cs_plan() == 0,
               "controller checkpoint requires a drained circuit fabric");
  layout(w, *this);
}

void TdmController::restore_state(StateReader& r) { layout(r, *this); }

}  // namespace hybridnoc
