// SIMT streaming-multiprocessor model (the GPGPU-Sim substitute).
//
// 32 warps (Table II: 1024 threads / 32-wide SIMD) alternate between compute
// phases (geometric around the benchmark's compute_cycles) and one memory
// request each; one warp request issues per cycle. Throughput — completed
// memory transactions per cycle — is the performance proxy: with enough
// ready warps, memory latency is hidden and only bandwidth matters, which is
// why GPU messages tolerate circuit-switching delay.
//
// The "slack" of Section V-A2 is estimated from the number of ready warps at
// request time: every ready warp buys roughly one compute phase's worth of
// tolerance before the SM would actually stall on this reply.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hetero/benchmarks.hpp"

namespace hybridnoc {

class GpuSm {
 public:
  /// issue(warp_index, line_addr, slack_cycles)
  using IssueFn =
      std::function<void(int warp, std::uint64_t line_addr, std::int64_t slack)>;

  static constexpr int kWarps = 32;

  GpuSm(NodeId node, const GpuBenchParams& params, int sm_index, Rng rng,
        IssueFn issue);

  void tick(Cycle now);
  /// The reply for `warp`'s request arrived; it resumes computing.
  void on_reply(int warp, Cycle now);

  NodeId node() const { return node_; }
  int sm_index() const { return sm_index_; }
  int ready_warps(Cycle now) const;
  int waiting_warps() const { return waiting_; }
  std::uint64_t transactions_completed() const { return transactions_; }

 private:
  Cycle roll_compute(Cycle now);

  struct Warp {
    Cycle compute_done = 0;
    bool waiting_mem = false;
  };

  NodeId node_;
  GpuBenchParams params_;
  int sm_index_;
  Rng rng_;
  IssueFn issue_;
  std::vector<Warp> warps_;
  int issue_rr_ = 0;
  int waiting_ = 0;  ///< warps with waiting_mem set
  std::uint64_t transactions_ = 0;
  std::uint64_t next_addr_;
};

}  // namespace hybridnoc
