// Twin-run equivalence suite for the warmup checkpoint (driver snapshot
// API): measuring from a restored snapshot must be bit-identical to
// measuring in place, and every corrupt-archive path must fail with
// StateError — never an abort — so the sweep orchestrator can treat a bad
// checkpoint as a cache miss.
#include <gtest/gtest.h>

#include <string>

#include "common/fileio.hpp"
#include "common/pool.hpp"
#include "common/state_io.hpp"
#include "noc/network.hpp"
#include "sim/driver.hpp"
#include "sim/net_adapter.hpp"

namespace hybridnoc {
namespace {

RunParams small_params(double rate) {
  RunParams p;
  p.injection_rate = rate;
  p.warmup_packets = 60;
  p.warmup_min_cycles = 400;
  p.measure_packets = 250;
  p.max_cycles = 80000;
  p.seed = 7;
  return p;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.offered_rate, b.offered_rate);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.measured_packets, b.measured_packets);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.cs_flit_fraction, b.cs_flit_fraction);
  EXPECT_EQ(a.config_flit_fraction, b.config_flit_fraction);
  EXPECT_EQ(a.energy.buffer_writes, b.energy.buffer_writes);
  EXPECT_EQ(a.energy.buffer_reads, b.energy.buffer_reads);
  EXPECT_EQ(a.energy.xbar_flits, b.energy.xbar_flits);
  EXPECT_EQ(a.energy.vc_arbs, b.energy.vc_arbs);
  EXPECT_EQ(a.energy.sw_arbs, b.energy.sw_arbs);
  EXPECT_EQ(a.energy.link_flits, b.energy.link_flits);
  EXPECT_EQ(a.energy.slot_table_reads, b.energy.slot_table_reads);
  EXPECT_EQ(a.energy.slot_table_writes, b.energy.slot_table_writes);
  EXPECT_EQ(a.energy.dlt_accesses, b.energy.dlt_accesses);
  EXPECT_EQ(a.energy.cs_latch_flits, b.energy.cs_latch_flits);
  EXPECT_EQ(a.energy.cycles, b.energy.cycles);
  EXPECT_EQ(a.energy.vc_active_cycles, b.energy.vc_active_cycles);
  EXPECT_EQ(a.energy.slot_entry_active_cycles,
            b.energy.slot_entry_active_cycles);
  EXPECT_EQ(a.energy.dlt_active_cycles, b.energy.dlt_active_cycles);
  EXPECT_EQ(a.energy.cs_misc_active_cycles, b.energy.cs_misc_active_cycles);
  EXPECT_EQ(a.energy.link_active_cycles, b.energy.link_active_cycles);
}

void twin_run(const NocConfig& cfg, const RunParams& params) {
  const WarmupSnapshot snap = warmup_snapshot(cfg, params);
  ASSERT_TRUE(snap.ok);
  const RunResult restored = run_synthetic_from_snapshot(cfg, params,
                                                         snap.sealed);
  const RunResult in_place = run_synthetic_drained(cfg, params);
  EXPECT_GT(in_place.measured_packets, 0u);
  expect_identical(in_place, restored);
}

TEST(Checkpoint, RestoreEqualsColdRunPacket) {
  twin_run(NocConfig::packet_vc4(4), small_params(0.08));
}

TEST(Checkpoint, RestoreEqualsColdRunHybridTdm) {
  twin_run(NocConfig::hybrid_tdm_vc4(4), small_params(0.08));
}

// The full-feature TDM config: dynamic slot sizing, hitchhiker + vicinity
// sharing and the DLT all carry checkpointed state.
TEST(Checkpoint, RestoreEqualsColdRunHybridTdmHop) {
  twin_run(NocConfig::hybrid_tdm_hop_vc4(4), small_params(0.1));
}

// VC power gating checkpoints the gating controller state in the routers.
TEST(Checkpoint, RestoreEqualsColdRunHybridTdmGated) {
  twin_run(NocConfig::hybrid_tdm_hop_vct(4), small_params(0.1));
}

TEST(Checkpoint, RestoreEqualsColdRunTornado) {
  RunParams p = small_params(0.1);
  p.pattern = TrafficPattern::Tornado;
  twin_run(NocConfig::hybrid_tdm_vc4(4), p);
}

// Measure-phase params may differ from the snapshotting run: only the
// warmup identity is guarded.
TEST(Checkpoint, MeasureParamsMayDiffer) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  const RunParams p = small_params(0.08);
  const WarmupSnapshot snap = warmup_snapshot(cfg, p);
  ASSERT_TRUE(snap.ok);
  RunParams longer = p;
  longer.measure_packets = 400;
  const RunResult a = run_synthetic_from_snapshot(cfg, longer, snap.sealed);
  EXPECT_GE(a.measured_packets, 400u);
}

// Network-archive round trip: restore then save must reproduce the archive
// byte for byte (the state is closed under save/restore).
TEST(Checkpoint, NetworkArchiveRoundTripIsByteIdentical) {
  const NocConfig cfg = NocConfig::hybrid_tdm_hop_vc4(4);
  const RunParams p = small_params(0.1);
  const Mesh mesh(cfg.k);

  auto warmed = make_network(cfg);
  Network* net = warmed->mesh_network_mut();
  ASSERT_NE(net, nullptr);
  {
    SyntheticTraffic traffic(mesh, p.pattern, p.injection_rate,
                             cfg.ps_data_flits, p.seed);
    PacketId next_id = 1;
    while (net->now() < 3000) {
      traffic.generate([&](NodeId src, NodeId dst) {
        auto pkt = make_packet();
        pkt->id = next_id++;
        pkt->src = src;
        pkt->dst = dst;
        pkt->num_flits = cfg.ps_data_flits;
        pkt->cs_eligible = true;
        warmed->send(std::move(pkt));
      });
      warmed->tick();
    }
    ASSERT_TRUE(net->drain(100000));
  }
  const std::string archive = net->save_state();

  auto fresh = make_network(cfg);
  Network* twin = fresh->mesh_network_mut();
  ASSERT_NE(twin, nullptr);
  twin->restore_state(archive);
  EXPECT_EQ(twin->save_state(), archive);
}

// The round trips above pass whatever the archive layout is, so nothing
// else notices a layout change that comes without a kSnapshotSection bump
// (after which a stale snapshot on disk would restore garbage instead of
// failing the section check). This pins the bytes of one small seeded
// drained TDM warmup; a deliberate change of simulated behaviour moves it
// too, together with the FidelityPin records.
TEST(Checkpoint, SnapshotLayoutPinned) {
  const WarmupSnapshot snap =
      warmup_snapshot(NocConfig::hybrid_tdm_vc4(4), small_params(0.08));
  ASSERT_TRUE(snap.ok);
  constexpr std::uint64_t kPinnedDigest = 0xe9dfd545588655d2ULL;
  EXPECT_EQ(fnv1a64(snap.sealed), kPinnedDigest)
      << std::hex << "got 0x" << fnv1a64(snap.sealed)
      << ": archive layout changed: bump kSnapshotSection, then re-pin";
}

TEST(Checkpoint, TruncatedSnapshotThrows) {
  const NocConfig cfg = NocConfig::packet_vc4(4);
  const RunParams p = small_params(0.08);
  const WarmupSnapshot snap = warmup_snapshot(cfg, p);
  ASSERT_TRUE(snap.ok);
  const std::string cut = snap.sealed.substr(0, snap.sealed.size() / 2);
  EXPECT_THROW(run_synthetic_from_snapshot(cfg, p, cut), StateError);
}

TEST(Checkpoint, BitFlippedSnapshotThrows) {
  const NocConfig cfg = NocConfig::packet_vc4(4);
  const RunParams p = small_params(0.08);
  const WarmupSnapshot snap = warmup_snapshot(cfg, p);
  ASSERT_TRUE(snap.ok);
  // Flip one bit in every quarter of the archive: header, guards, network
  // payload, digest region.
  for (std::size_t q = 0; q < 4; ++q) {
    std::string bad = snap.sealed;
    bad[q * (bad.size() / 4) + 16] ^= 0x10;
    EXPECT_THROW(run_synthetic_from_snapshot(cfg, p, bad), StateError);
  }
}

TEST(Checkpoint, EmptySnapshotThrows) {
  const NocConfig cfg = NocConfig::packet_vc4(4);
  const RunParams p = small_params(0.08);
  EXPECT_THROW(run_synthetic_from_snapshot(cfg, p, std::string()),
               StateError);
}

TEST(Checkpoint, MismatchedParamsThrow) {
  const NocConfig cfg = NocConfig::packet_vc4(4);
  const RunParams p = small_params(0.08);
  const WarmupSnapshot snap = warmup_snapshot(cfg, p);
  ASSERT_TRUE(snap.ok);

  RunParams other_rate = p;
  other_rate.injection_rate = 0.1;
  EXPECT_THROW(run_synthetic_from_snapshot(cfg, other_rate, snap.sealed),
               StateError);

  RunParams other_seed = p;
  other_seed.seed = 99;
  EXPECT_THROW(run_synthetic_from_snapshot(cfg, other_seed, snap.sealed),
               StateError);
}

TEST(Checkpoint, MismatchedArchThrows) {
  const RunParams p = small_params(0.08);
  const WarmupSnapshot snap = warmup_snapshot(NocConfig::packet_vc4(4), p);
  ASSERT_TRUE(snap.ok);
  EXPECT_THROW(
      run_synthetic_from_snapshot(NocConfig::hybrid_tdm_vc4(4), p,
                                  snap.sealed),
      StateError);
}

}  // namespace
}  // namespace hybridnoc
