// Network checkpoint suite: a drained network saved and restored into a
// fresh one must continue bit-identically to the original under the same
// traffic, its archive bytes are pinned, and every malformed archive must
// fail with StateError — never an abort — so a caller can treat a bad
// checkpoint as "recompute from scratch".
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/fileio.hpp"
#include "common/pool.hpp"
#include "common/state_io.hpp"
#include "noc/network.hpp"
#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"

namespace hybridnoc {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr Cycle kDrainBudget = 80000;

std::unique_ptr<Network> build(const NocConfig& cfg) {
  if (cfg.arch == RouterArch::HybridTdm) {
    return std::make_unique<HybridNetwork>(cfg);
  }
  return std::make_unique<Network>(cfg);
}

/// Offer one cycle of `traffic` to `net`, then tick it.
void step(Network& net, SyntheticTraffic& traffic, PacketId& next_id) {
  traffic.generate([&](NodeId src, NodeId dst) {
    auto p = make_packet();
    p->id = next_id++;
    p->src = src;
    p->dst = dst;
    p->num_flits = net.cfg().ps_data_flits;
    p->cs_eligible = true;
    net.ni(src).send(std::move(p), net.now());
  });
  net.tick();
}

/// Warm `net` under seeded traffic the way a measured run does (until 60
/// packets are delivered and 400 cycles have passed), then drain it.
/// Returns the next free packet id.
PacketId warm_drained(Network& net, TrafficPattern pattern, double rate) {
  SyntheticTraffic traffic(net.mesh(), pattern, rate, net.cfg().ps_data_flits,
                           kSeed);
  std::uint64_t delivered = 0;
  net.set_deliver_handler([&](const PacketPtr&, Cycle) { ++delivered; });
  PacketId next_id = 1;
  while (delivered < 60 || net.now() < 400) step(net, traffic, next_id);
  net.set_deliver_handler({});
  EXPECT_TRUE(net.drain(kDrainBudget));
  return next_id;
}

/// Warm and drain, save, restore into a fresh network, then continue both
/// under identical fresh traffic and drain again: energy, counters and the
/// final archive must match.
void twin_run(const NocConfig& cfg, TrafficPattern pattern, double rate) {
  auto original = build(cfg);
  const PacketId next_id = warm_drained(*original, pattern, rate);
  const std::uint64_t delivered_at_save =
      original->ni_counters()[NiCounter::DataPacketsDelivered];
  auto restored = build(cfg);
  restored->restore_state(original->save_state());

  for (Network* net : {original.get(), restored.get()}) {
    net->set_policy_frozen(false);
    SyntheticTraffic traffic(net->mesh(), pattern, rate, cfg.ps_data_flits,
                             /*seed=*/11);
    PacketId id = next_id;
    for (int c = 0; c < 3000; ++c) step(*net, traffic, id);
    ASSERT_TRUE(net->drain(kDrainBudget));
  }
  EXPECT_GT(original->ni_counters()[NiCounter::DataPacketsDelivered],
            delivered_at_save);
  EXPECT_EQ(original->now(), restored->now());
  EXPECT_EQ(original->total_energy(), restored->total_energy())
      << first_difference(original->total_energy(), restored->total_energy());
  EXPECT_EQ(original->ni_counters(), restored->ni_counters())
      << first_difference(original->ni_counters(), restored->ni_counters());
  EXPECT_EQ(original->router_counters(), restored->router_counters())
      << first_difference(original->router_counters(),
                          restored->router_counters());
  // Digests, so a mismatch prints two words instead of two archives.
  EXPECT_EQ(fnv1a64(original->save_state()), fnv1a64(restored->save_state()));
}

TEST(Checkpoint, RestoreEqualsColdRunPacket) {
  twin_run(NocConfig::packet_vc4(4), TrafficPattern::UniformRandom, 0.08);
}

TEST(Checkpoint, RestoreEqualsColdRunHybridTdm) {
  twin_run(NocConfig::hybrid_tdm_vc4(4), TrafficPattern::UniformRandom, 0.08);
}

// The full-feature TDM config: dynamic slot sizing, hitchhiker + vicinity
// sharing and the DLT all carry checkpointed state.
TEST(Checkpoint, RestoreEqualsColdRunHybridTdmHop) {
  twin_run(NocConfig::hybrid_tdm_hop_vc4(4), TrafficPattern::UniformRandom,
           0.1);
}

// VC power gating checkpoints the gating controller state in the routers.
TEST(Checkpoint, RestoreEqualsColdRunHybridTdmGated) {
  twin_run(NocConfig::hybrid_tdm_hop_vct(4), TrafficPattern::UniformRandom,
           0.1);
}

TEST(Checkpoint, RestoreEqualsColdRunTornado) {
  twin_run(NocConfig::hybrid_tdm_vc4(4), TrafficPattern::Tornado, 0.1);
}

// Restore then save must reproduce the archive byte for byte (the state is
// closed under save/restore).
TEST(Checkpoint, NetworkArchiveRoundTripIsByteIdentical) {
  const NocConfig cfg = NocConfig::hybrid_tdm_hop_vc4(4);
  auto warmed = build(cfg);
  warm_drained(*warmed, TrafficPattern::UniformRandom, 0.1);
  const std::string archive = warmed->save_state();

  auto twin = build(cfg);
  twin->restore_state(archive);
  EXPECT_EQ(twin->save_state(), archive);
}

/// FNV-1a of the archive of one small seeded drained warmup.
std::uint64_t warm_archive_digest(const NocConfig& cfg, double rate) {
  auto net = build(cfg);
  warm_drained(*net, TrafficPattern::UniformRandom, rate);
  return fnv1a64(net->save_state());
}

// The round trips above pass whatever the archive layout is, so nothing
// else notices a layout change. This pins the archive bytes of one small
// seeded drained TDM warmup; a deliberate change of the layout or of
// simulated behaviour moves it too, together with the FidelityPin records.
TEST(Checkpoint, SnapshotLayoutPinned) {
  const std::uint64_t got =
      warm_archive_digest(NocConfig::hybrid_tdm_vc4(4), 0.08);
  constexpr std::uint64_t kPinnedDigest = 0xa8a67f1b6cdb4bb4ULL;
  EXPECT_EQ(got, kPinnedDigest)
      << std::hex << "got 0x" << got << ": archive bytes changed; re-pin";
}

// The same pin for the config whose archive carries live DLT entries,
// hitchhiker/vicinity path-sharing state and VC-gating integrals.
TEST(Checkpoint, SnapshotLayoutPinnedHopVct) {
  const std::uint64_t got =
      warm_archive_digest(NocConfig::hybrid_tdm_hop_vct(4), 0.1);
  constexpr std::uint64_t kPinnedDigest = 0x5ef708c8e87f6476ULL;
  EXPECT_EQ(got, kPinnedDigest)
      << std::hex << "got 0x" << got << ": archive bytes changed; re-pin";
}

// An archive restored into a network with another VC count fails the
// header's config check, before any component state is read.
TEST(Checkpoint, NetworkArchiveRejectsOtherVcCount) {
  const std::string archive = build(NocConfig::packet_vc4(4))->save_state();
  NocConfig other = NocConfig::packet_vc4(4);
  other.num_vcs = 2;
  try {
    build(other)->restore_state(archive);
    FAIL() << "restore accepted an archive with another num_vcs";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("config mismatch"),
              std::string::npos)
        << e.what();
  }
}

/// The archive of a warmed, drained packet-switched 4x4 network.
std::string packet_archive() {
  auto net = build(NocConfig::packet_vc4(4));
  warm_drained(*net, TrafficPattern::UniformRandom, 0.08);
  return net->save_state();
}

TEST(Checkpoint, TruncatedSnapshotThrows) {
  const std::string archive = packet_archive();
  const std::string cut = archive.substr(0, archive.size() / 2);
  EXPECT_THROW(build(NocConfig::packet_vc4(4))->restore_state(cut),
               StateError);
}

TEST(Checkpoint, BitFlippedSnapshotThrows) {
  const std::string archive = packet_archive();
  // Flip one bit in every quarter of the archive: header, network header,
  // component payload, digest region.
  for (std::size_t q = 0; q < 4; ++q) {
    std::string bad = archive;
    bad[q * (bad.size() / 4) + 16] ^= 0x10;
    EXPECT_THROW(build(NocConfig::packet_vc4(4))->restore_state(bad),
                 StateError);
  }
}

TEST(Checkpoint, EmptySnapshotThrows) {
  EXPECT_THROW(build(NocConfig::packet_vc4(4))->restore_state(std::string()),
               StateError);
}

// A packet-switched archive restored into a hybrid network (and the reverse)
// fails on the hybrid's extra state, not with an abort.
TEST(Checkpoint, MismatchedArchThrows) {
  EXPECT_THROW(build(NocConfig::hybrid_tdm_vc4(4))->restore_state(
                   packet_archive()),
               StateError);
  auto hybrid = build(NocConfig::hybrid_tdm_vc4(4));
  warm_drained(*hybrid, TrafficPattern::UniformRandom, 0.08);
  EXPECT_THROW(build(NocConfig::packet_vc4(4))->restore_state(
                   hybrid->save_state()),
               StateError);
}

}  // namespace
}  // namespace hybridnoc
