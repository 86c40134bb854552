#include "common/rng.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/state_io.hpp"

namespace hybridnoc {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is the one invalid state for xoshiro; splitmix64 cannot
  // produce four zeros from any seed, but keep the guard explicit.
  HN_CHECK(s_[0] | s_[1] | s_[2] | s_[3]);
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  HN_CHECK(lo <= hi);
  return lo + static_cast<std::int64_t>(
                  uniform_int(static_cast<std::uint64_t>(hi - lo) + 1));
}

std::uint64_t Rng::geometric(double p) {
  HN_CHECK(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  const double u = uniform();
  return static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
}

Rng Rng::split() { return Rng(next_u64() ^ 0xd2b74407b1ce6e93ULL); }

void Rng::save_state(StateWriter& w) const {
  for (const std::uint64_t s : s_) w.field(s);
}

void Rng::restore_state(StateReader& r) {
  std::array<std::uint64_t, 4> s{};
  r.field(s);
  r.check((s[0] | s[1] | s[2] | s[3]) != 0, "all-zero rng state");
  std::copy(s.begin(), s.end(), s_);
}

}  // namespace hybridnoc
