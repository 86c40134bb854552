#include "hetero/gpu_sm.hpp"

namespace hybridnoc {

namespace {
/// Cycles of stall tolerance each available warp buys. "Available" follows
/// Section V-A2's reading: warps not blocked on memory can still be issued,
/// so each one hides roughly an issue round's worth of this reply's delay.
constexpr std::int64_t kSlackPerAvailableWarp = 40;
/// Slack attached to non-blocking (MSHR-covered) accesses.
constexpr std::int64_t kNonBlockingSlack = 4096;
}  // namespace

GpuSm::GpuSm(NodeId node, const GpuBenchParams& params, int sm_index, Rng rng,
             IssueFn issue)
    : node_(node),
      params_(params),
      sm_index_(sm_index),
      rng_(rng),
      issue_(std::move(issue)),
      warps_(kWarps),
      next_addr_(static_cast<std::uint64_t>(node) * 104729) {
  // Stagger initial compute phases so warps do not lock-step.
  for (auto& w : warps_) {
    w.compute_done = rng_.uniform_int(
        static_cast<std::uint64_t>(params_.compute_cycles) + 1);
  }
}

Cycle GpuSm::roll_compute(Cycle now) {
  // Geometric-ish compute phase with the benchmark's mean.
  const double p = 1.0 / params_.compute_cycles;
  return now + 1 + rng_.geometric(p);
}

int GpuSm::ready_warps(Cycle now) const {
  int n = 0;
  for (const auto& w : warps_) {
    if (!w.waiting_mem && w.compute_done > now) ++n;
  }
  return n;
}

void GpuSm::tick(Cycle now) {
  // One memory request issues per cycle: the first warp (round-robin) whose
  // compute phase has finished.
  for (int i = 0; i < kWarps; ++i) {
    const int w = (issue_rr_ + i) % kWarps;
    Warp& warp = warps_[static_cast<size_t>(w)];
    if (warp.waiting_mem || warp.compute_done > now) continue;
    issue_rr_ = (w + 1) % kWarps;
    if (rng_.bernoulli(params_.blocking_fraction)) {
      // Dependent load: the warp stalls until the reply; its slack is what
      // the other available warps can hide (Section V-A2).
      warp.waiting_mem = true;
      ++waiting_;
      const std::int64_t available = kWarps - waiting_;
      issue_(w, next_addr_ + rng_.next_u64(), available * kSlackPerAvailableWarp);
    } else {
      // Streaming access covered by an MSHR: the warp computes on; the
      // reply only consumes bandwidth, so its slack is effectively
      // unbounded.
      warp.compute_done = roll_compute(now);
      issue_(-1, next_addr_ + rng_.next_u64(), kNonBlockingSlack);
    }
    break;
  }
}

void GpuSm::on_reply(int warp, Cycle now) {
  ++transactions_;
  if (warp < 0) return;  // non-blocking access: nothing was stalled on it
  Warp& w = warps_[static_cast<size_t>(warp)];
  HN_CHECK(w.waiting_mem);
  w.waiting_mem = false;
  --waiting_;
  w.compute_done = roll_compute(now);
}

}  // namespace hybridnoc
