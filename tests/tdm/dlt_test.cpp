#include "tdm/dlt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "common/state_io.hpp"
#include "tdm/controller.hpp"
#include "tdm/hybrid_ni.hpp"

namespace hybridnoc {
namespace {

constexpr int kSlots = 16;  ///< slot-table size of the tables under test
constexpr int kNodes = 16;  ///< mesh size of the tables under test

TEST(Dlt, ObserveAndFind) {
  DestinationLookupTable dlt(8, kSlots, kNodes);
  dlt.observe(7, 12, 4, Port::West, Port::East, 100);
  dlt.activate_route(12, Port::West);
  const auto e = dlt.find(7);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->dest, 7);
  EXPECT_EQ(e->slot, 12);
  EXPECT_EQ(e->duration, 4);
  EXPECT_EQ(e->in, Port::West);
  EXPECT_EQ(e->out, Port::East);
  EXPECT_FALSE(dlt.find(8).has_value());
}

TEST(Dlt, ReobserveReplacesAndResetsCounter) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  dlt.observe(7, 12, 4, Port::West, Port::East, 100);
  dlt.activate_route(12, Port::West);
  EXPECT_FALSE(dlt.record_failure(7));  // counter '01'
  dlt.observe(7, 20, 4, Port::North, Port::East, 200);
  dlt.activate_route(20, Port::North);
  const auto e = dlt.find(7);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->slot, 20);
  EXPECT_EQ(e->fail_count, 0);
  EXPECT_EQ(dlt.size(), 1);
}

TEST(Dlt, LruEvictionWhenFull) {
  DestinationLookupTable dlt(2, kSlots, kNodes);
  dlt.observe(1, 0, 4, Port::West, Port::East, 10);
  dlt.activate_route(0, Port::West);
  dlt.observe(2, 1, 4, Port::West, Port::East, 20);
  dlt.activate_route(1, Port::West);
  dlt.touch(1, 30);  // 2 is now least recently used
  dlt.observe(3, 2, 4, Port::West, Port::East, 40);
  dlt.activate_route(2, Port::West);
  EXPECT_TRUE(dlt.find(1).has_value());
  EXPECT_FALSE(dlt.find(2).has_value());
  EXPECT_TRUE(dlt.find(3).has_value());
}

TEST(Dlt, TwoBitCounterSaturatesAtTwo) {
  // Section III-A1: when the counter becomes '10' the entry is removed and
  // a dedicated path setup is generated.
  DestinationLookupTable dlt(4, kSlots, kNodes);
  dlt.observe(9, 3, 4, Port::West, Port::East, 0);
  dlt.activate_route(3, Port::West);
  EXPECT_FALSE(dlt.record_failure(9));  // '01'
  EXPECT_TRUE(dlt.record_failure(9));   // '10' -> saturated, removed
  EXPECT_FALSE(dlt.find(9).has_value());
  // Failures on unknown destinations report false.
  EXPECT_FALSE(dlt.record_failure(9));
}

TEST(Dlt, InvalidateRouteRemovesMatchingEntries) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  dlt.observe(5, 7, 4, Port::West, Port::East, 0);
  dlt.activate_route(7, Port::West);
  dlt.observe(6, 7, 4, Port::North, Port::East, 0);
  dlt.activate_route(7, Port::North);
  dlt.invalidate_route(7, Port::West);
  EXPECT_FALSE(dlt.find(5).has_value());
  EXPECT_TRUE(dlt.find(6).has_value());  // different input port survives
}

TEST(Dlt, FindAdjacent) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  dlt.observe(10, 0, 4, Port::West, Port::East, 0);
  dlt.activate_route(0, Port::West);
  const auto e =
      dlt.find_adjacent(11, [](NodeId a, NodeId b) { return a + 1 == b; });
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->dest, 10);
  EXPECT_FALSE(
      dlt.find_adjacent(13, [](NodeId a, NodeId b) { return a + 1 == b; })
          .has_value());
}

TEST(Dlt, ProvisionalEntriesAreNotShared) {
  // A setup passing through is not proof the circuit completed; only after
  // the router forwards circuit traffic does the entry become usable.
  DestinationLookupTable dlt(4, kSlots, kNodes);
  dlt.observe(7, 5, 4, Port::West, Port::East, 0);
  EXPECT_FALSE(dlt.find(7).has_value());
  EXPECT_FALSE(dlt.find_adjacent(8, [](NodeId a, NodeId b) { return a + 1 == b; })
                   .has_value());
  dlt.activate_route(5, Port::West);
  EXPECT_TRUE(dlt.find(7).has_value());
  // Re-observation (a new setup on the same route) makes it provisional again.
  dlt.observe(7, 9, 4, Port::West, Port::East, 10);
  EXPECT_FALSE(dlt.find(7).has_value());
}

TEST(Dlt, ActivationRequiresMatchingRoute) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  dlt.observe(7, 5, 4, Port::West, Port::East, 0);
  dlt.activate_route(5, Port::North);  // wrong input port
  EXPECT_FALSE(dlt.find(7).has_value());
  dlt.activate_route(6, Port::West);  // wrong slot
  EXPECT_FALSE(dlt.find(7).has_value());
}

TEST(Dlt, ClearAndSize) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  dlt.observe(1, 0, 4, Port::West, Port::East, 0);
  dlt.activate_route(0, Port::West);
  dlt.observe(2, 0, 4, Port::North, Port::South, 0);
  dlt.activate_route(0, Port::North);
  EXPECT_EQ(dlt.size(), 2);
  dlt.clear();
  EXPECT_EQ(dlt.size(), 0);
  EXPECT_FALSE(dlt.find(1).has_value());
}

// The first entry of a hand-built DLT archive; the rest are well formed.
struct FirstEntry {
  std::uint8_t in = static_cast<std::uint8_t>(Port::West);
  int slot = 0;
  int duration = 4;
  NodeId dest = 0;
};

// Hand-built DLT archives: `entries` entries under a header that claims
// `capacity`, the first one as `first` describes.
std::string dlt_archive(int capacity, int entries, FirstEntry first = {}) {
  StateWriter w;
  w.section("dlt");
  w.i32(capacity);
  for (int i = 0; i < entries; ++i) {
    w.i32(i == 0 ? first.dest : i);
    w.i32(i == 0 ? first.slot : i);
    w.i32(i == 0 ? first.duration : 4);
    w.u8(i == 0 ? first.in : static_cast<std::uint8_t>(Port::West));
    w.u8(static_cast<std::uint8_t>(Port::East));
    w.u8(/*fail_count=*/0);
    w.u64(/*last_used=*/10);
    w.u64(/*generation=*/0);
    w.b(true);
  }
  w.u64(/*accesses=*/7);
  return w.seal();
}

void restore_from(DestinationLookupTable& dlt, const std::string& sealed) {
  StateReader r(sealed);
  dlt.restore_state(r);
}

TEST(DltRestore, WellFormedArchiveRestores) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  restore_from(dlt, dlt_archive(4, 4, {.in = static_cast<std::uint8_t>(Port::North)}));
  EXPECT_EQ(dlt.size(), 4);
  const auto e = dlt.find(0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->in, Port::North);
}

// The body holds one entry per slot of the restoring table, so only the
// capacity field itself disagrees.
TEST(DltRestore, CapacityMismatchThrows) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  EXPECT_THROW(restore_from(dlt, dlt_archive(8, 4)), StateError);
}

TEST(DltRestore, EntryPortOutOfRangeThrows) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  const auto bad = static_cast<std::uint8_t>(kNumPorts);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, {.in = bad})), StateError);
}

// Empty entries (dest = kInvalidNode, slot = duration = 0) are what a
// partly filled table writes.
TEST(DltRestore, EmptyEntriesRoundTrip) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  dlt.observe(7, kSlots - 1, 4, Port::West, Port::East, 3);
  StateWriter w;
  dlt.save_state(w);
  DestinationLookupTable back(4, kSlots, kNodes);
  restore_from(back, w.seal());
  EXPECT_EQ(back.size(), 1);
}

TEST(DltRestore, EntrySlotOutOfRangeThrows) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, {.slot = kSlots})), StateError);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, {.slot = -1})), StateError);
}

TEST(DltRestore, EntryDurationOutOfRangeThrows) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, {.duration = kSlots})),
               StateError);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, {.duration = -1})), StateError);
}

// A restored destination names a node of the mesh, or kInvalidNode for an
// empty entry: find() must never hand out a path to a node that is not there.
TEST(DltRestore, EntryDestOutsideMeshThrows) {
  DestinationLookupTable dlt(4, kSlots, kNodes);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, {.dest = 99999})), StateError);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, {.dest = kNodes})), StateError);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, {.dest = kInvalidNode - 1})),
               StateError);
  restore_from(dlt, dlt_archive(4, 4, {.dest = kNodes - 1}));
  EXPECT_TRUE(dlt.find(kNodes - 1).has_value());
}

// Hand-built hybrid-NI archives: a fresh NI's base state, then one
// connection and one pending setup as `HybridNiArchive` describes, empty sets and
// counters, an empty DLT and an RNG.
struct HybridNiArchive {
  NodeId conn_dst = 5;
  int conn_slot = 3;
  int conn_duration = 4;
  NodeId pending_dst = 6;
  int pending_slot = 7;
};

struct HybridNiFixture {
  HybridNiFixture() : cfg(make_cfg()), mesh(cfg.k), ctrl(cfg), ni(cfg, 0, mesh, &ctrl) {}

  static NocConfig make_cfg() {
    NocConfig c = NocConfig::hybrid_tdm_vc4(4);
    c.slot_table_size = kSlots;
    return c;
  }

  std::string archive(const HybridNiArchive& a) const {
    StateWriter w;
    ni.NetworkInterface::save_state(w);
    w.section("hybrid_ni");
    w.u64(1);  // connections
    w.i32(a.conn_dst);
    w.u64(1);  // windows
    w.i32(a.conn_slot);
    w.u64(/*setup id=*/11);
    w.i32(a.conn_duration);
    w.u64(/*last_used=*/20);
    w.u8(/*vicinity_fail=*/0);
    w.i32(/*fail_streak=*/0);
    w.b(/*doomed=*/false);
    w.u64(1);  // pending setups
    w.u64(/*setup id=*/12);
    w.i32(a.pending_dst);
    w.i32(a.pending_slot);
    w.i32(/*retries=*/0);
    w.u64(/*sent_at=*/30);
    w.u64(1);  // pending destinations
    w.i32(a.pending_dst);
    w.u64(0);  // frequency counts
    w.u64(0);  // cooldowns
    DestinationLookupTable(cfg.dlt_entries, cfg.slot_table_size, cfg.num_nodes())
        .save_state(w);
    Rng(1).save_state(w);
    w.b(/*frozen=*/false);
    w.u64(/*epoch_start=*/0);
    return w.seal();
  }

  void restore(const HybridNiArchive& a) {
    StateReader r(archive(a));
    ni.restore_state(r);
  }

  NocConfig cfg;
  Mesh mesh;
  TdmController ctrl;
  HybridNi ni;
};

TEST(HybridNiRestore, WellFormedArchiveRestores) {
  HybridNiFixture f;
  f.restore({});
  EXPECT_TRUE(f.ni.has_connection(5));
  EXPECT_EQ(f.ni.connection_duration(5), 4);
}

TEST(HybridNiRestore, ConnectionSlotOutOfRangeThrows) {
  HybridNiFixture f;
  EXPECT_THROW(f.restore({.conn_slot = kSlots}), StateError);
  EXPECT_THROW(f.restore({.conn_slot = -1}), StateError);
}

TEST(HybridNiRestore, ConnectionDurationOutOfRangeThrows) {
  HybridNiFixture f;
  EXPECT_THROW(f.restore({.conn_duration = 0}), StateError);
  EXPECT_THROW(f.restore({.conn_duration = kSlots}), StateError);
}

TEST(HybridNiRestore, PendingSetupDestinationInvalidThrows) {
  HybridNiFixture f;
  EXPECT_THROW(f.restore({.pending_dst = kInvalidNode}), StateError);
  EXPECT_THROW(f.restore({.pending_dst = 16}), StateError);
}

TEST(HybridNiRestore, PendingSetupSlotOutOfRangeThrows) {
  HybridNiFixture f;
  EXPECT_THROW(f.restore({.pending_slot = kSlots}), StateError);
  EXPECT_THROW(f.restore({.pending_slot = -1}), StateError);
}

}  // namespace
}  // namespace hybridnoc
