// Deterministic pseudo-random number generation for the simulator.
//
// All stochastic behaviour (traffic destinations, injection processes,
// benchmark models) draws from explicitly seeded Rng instances so that every
// experiment is bit-reproducible. xoshiro256** is used for its speed and
// statistical quality; seeding goes through splitmix64 as recommended by the
// generator's authors.
#pragma once

#include <cstdint>

#include "common/assert.hpp"

namespace hybridnoc {

class StateWriter;
class StateReader;

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) { reseed(seed); }

  void reseed(std::uint64_t seed);

  // The raw generator and the uniform draws are defined inline: they sit on
  // the per-injection hot path of every simulation loop, and a cross-TU call
  // per 64-bit draw is measurable there.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t uniform_int(std::uint64_t n) {
    HN_CHECK(n > 0);
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Geometric number of failures before a success; mean = (1-p)/p.
  /// Used for inter-event gaps in the workload models.
  std::uint64_t geometric(double p);

  /// Derive an independent stream (e.g. one per network node).
  Rng split();

  /// Checkpoint record: the raw generator state, so a restore continues the
  /// exact draw sequence bit-for-bit. Restore rejects the all-zero state.
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace hybridnoc
