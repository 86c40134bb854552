// The run fingerprint the scheduler- and thread-equivalence suites compare:
// everything one run exposes, harvested from a finished network and checked
// field by field, so a divergence names what diverged.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "noc/network.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {

inline std::string fixture_path(const std::string& name) {
  return std::string(HN_FIXTURE_DIR) + "/" + name;
}

/// Everything one run exposes for exact comparison.
struct RunFingerprint {
  Cycle end_cycle = 0;
  EnergyCounters energy;
  std::uint64_t delivered = 0;
  /// Every NI's and router's event counters, summed.
  NiCounters ni;
  RouterCounters router;
  /// Hybrid-only extras (zero for plain packet-switched runs).
  std::uint64_t slot_digest = 0;
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_duplicated = 0;
  int resizes = 0;
  std::uint64_t generation = 0;
  /// Data-plane fault-tolerance outcome (all zero with no fault model).
  std::uint64_t corrupted_traversals = 0;
  int failed_links = 0;
  /// Packet id -> delivery cycle. Injection schedules are identical across
  /// the twin runs, so equal delivery cycles mean equal latencies.
  std::map<PacketId, Cycle> deliveries;
};

inline void expect_same_energy(const EnergyCounters& a,
                               const EnergyCounters& b) {
  EXPECT_EQ(a, b) << first_difference(a, b);
}

inline void expect_same(const RunFingerprint& a, const RunFingerprint& b) {
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  expect_same_energy(a.energy, b.energy);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.ni, b.ni) << first_difference(a.ni, b.ni);
  EXPECT_EQ(a.router, b.router) << first_difference(a.router, b.router);
  EXPECT_EQ(a.slot_digest, b.slot_digest);
  EXPECT_EQ(a.faults_dropped, b.faults_dropped);
  EXPECT_EQ(a.faults_delayed, b.faults_delayed);
  EXPECT_EQ(a.faults_duplicated, b.faults_duplicated);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.corrupted_traversals, b.corrupted_traversals);
  EXPECT_EQ(a.failed_links, b.failed_links);
  EXPECT_EQ(a.deliveries, b.deliveries);
}

template <typename NetT>
void install_delivery_capture(NetT& net, RunFingerprint& fp) {
  net.set_deliver_handler([&fp](const PacketPtr& p, Cycle at) {
    ++fp.delivered;
    fp.deliveries.emplace(p->id, at);
  });
}

template <typename NetT>
void harvest_common(NetT& net, RunFingerprint& fp) {
  fp.end_cycle = net.now();
  fp.energy = net.total_energy();
  fp.ni = net.ni_counters();
  fp.router = net.router_counters();
}

inline void harvest_hybrid(HybridNetwork& net, RunFingerprint& fp) {
  harvest_common(net, fp);
  const DegradationReport d = net.degradation_report();
  fp.corrupted_traversals = d.corrupted_traversals;
  fp.failed_links = d.failed_links;
  fp.slot_digest = net.slot_state_digest();
  fp.faults_dropped = net.faults_dropped();
  fp.faults_delayed = net.faults_delayed();
  fp.faults_duplicated = net.faults_duplicated();
  fp.resizes = net.controller().resizes();
  fp.generation = net.controller().table_generation();
}

/// A small hybrid mesh whose circuits form quickly at test scale.
inline NocConfig small_hybrid_cfg(bool sharing) {
  NocConfig cfg =
      sharing ? NocConfig::hybrid_tdm_hop_vc4(4) : NocConfig::hybrid_tdm_vc4(4);
  cfg.slot_table_size = 32;
  cfg.initial_active_slots = 16;
  cfg.path_freq_threshold = 4;  // circuits form quickly at test scale
  return cfg;
}

}  // namespace hybridnoc
