#include "tdm/dlt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/state_io.hpp"

namespace hybridnoc {
namespace {

TEST(Dlt, ObserveAndFind) {
  DestinationLookupTable dlt(8);
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
  DestinationLookupTable dlt(4);
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
  DestinationLookupTable dlt(2);
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
  DestinationLookupTable dlt(4);
  dlt.observe(9, 3, 4, Port::West, Port::East, 0);
  dlt.activate_route(3, Port::West);
  EXPECT_FALSE(dlt.record_failure(9));  // '01'
  EXPECT_TRUE(dlt.record_failure(9));   // '10' -> saturated, removed
  EXPECT_FALSE(dlt.find(9).has_value());
  // Failures on unknown destinations report false.
  EXPECT_FALSE(dlt.record_failure(9));
}

TEST(Dlt, InvalidateRouteRemovesMatchingEntries) {
  DestinationLookupTable dlt(4);
  dlt.observe(5, 7, 4, Port::West, Port::East, 0);
  dlt.activate_route(7, Port::West);
  dlt.observe(6, 7, 4, Port::North, Port::East, 0);
  dlt.activate_route(7, Port::North);
  dlt.invalidate_route(7, Port::West);
  EXPECT_FALSE(dlt.find(5).has_value());
  EXPECT_TRUE(dlt.find(6).has_value());  // different input port survives
}

TEST(Dlt, FindAdjacent) {
  DestinationLookupTable dlt(4);
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
  DestinationLookupTable dlt(4);
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
  DestinationLookupTable dlt(4);
  dlt.observe(7, 5, 4, Port::West, Port::East, 0);
  dlt.activate_route(5, Port::North);  // wrong input port
  EXPECT_FALSE(dlt.find(7).has_value());
  dlt.activate_route(6, Port::West);  // wrong slot
  EXPECT_FALSE(dlt.find(7).has_value());
}

TEST(Dlt, ClearAndSize) {
  DestinationLookupTable dlt(4);
  dlt.observe(1, 0, 4, Port::West, Port::East, 0);
  dlt.activate_route(0, Port::West);
  dlt.observe(2, 0, 4, Port::North, Port::South, 0);
  dlt.activate_route(0, Port::North);
  EXPECT_EQ(dlt.size(), 2);
  dlt.clear();
  EXPECT_EQ(dlt.size(), 0);
  EXPECT_FALSE(dlt.find(1).has_value());
}

// Hand-built DLT archives: `entries` well-formed entries under a header
// that claims `capacity`, with the first entry's input port set to `in`.
std::string dlt_archive(int capacity, int entries, std::uint8_t in) {
  StateWriter w;
  w.section("dlt");
  w.i32(capacity);
  for (int i = 0; i < entries; ++i) {
    w.i32(/*dest=*/i);
    w.i32(/*slot=*/i);
    w.i32(/*duration=*/4);
    w.u8(i == 0 ? in : static_cast<std::uint8_t>(Port::West));
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
  DestinationLookupTable dlt(4);
  restore_from(dlt, dlt_archive(4, 4, static_cast<std::uint8_t>(Port::North)));
  EXPECT_EQ(dlt.size(), 4);
  const auto e = dlt.find(0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->in, Port::North);
}

// The body holds one entry per slot of the restoring table, so only the
// capacity field itself disagrees.
TEST(DltRestore, CapacityMismatchThrows) {
  DestinationLookupTable dlt(4);
  EXPECT_THROW(restore_from(dlt, dlt_archive(8, 4, 0)), StateError);
}

TEST(DltRestore, EntryPortOutOfRangeThrows) {
  DestinationLookupTable dlt(4);
  const auto bad = static_cast<std::uint8_t>(kNumPorts);
  EXPECT_THROW(restore_from(dlt, dlt_archive(4, 4, bad)), StateError);
}

}  // namespace
}  // namespace hybridnoc
