#include "noc/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace hybridnoc {
namespace {

// Follow route_xy hop by hop; it must reach dst in exactly hop_distance hops.
TEST(RouteXy, MinimalAndCorrectForAllPairs) {
  const Mesh mesh(6);
  for (NodeId src = 0; src < mesh.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < mesh.num_nodes(); ++dst) {
      NodeId here = src;
      int hops = 0;
      while (here != dst) {
        const Port p = route_xy(mesh, here, dst);
        ASSERT_NE(p, Port::Local);
        ASSERT_TRUE(mesh.has_neighbor(here, p));
        here = mesh.neighbor(here, p);
        ++hops;
        ASSERT_LE(hops, mesh.hop_distance(src, dst));
      }
      EXPECT_EQ(hops, mesh.hop_distance(src, dst));

      // for_each_xy_hop visits the same routers and ports, hop by hop.
      NodeId expect = src;
      Port prev_out = Port::Local;
      int calls = 0;
      for_each_xy_hop(mesh, src, dst, [&](int i, NodeId at, Port in, Port out) {
        EXPECT_EQ(i, calls++);
        EXPECT_EQ(at, expect);
        EXPECT_EQ(out, route_xy(mesh, at, dst));
        EXPECT_EQ(in, i == 0 ? Port::Local : opposite(prev_out));
        if (out != Port::Local) expect = mesh.neighbor(at, out);
        prev_out = out;
        return true;
      });
      EXPECT_EQ(calls, hops + 1);
      EXPECT_EQ(expect, dst);
      EXPECT_EQ(prev_out, Port::Local);

      // Returning false stops the walk at that router.
      const int stop = hops / 2;
      int stopped_calls = 0;
      for_each_xy_hop(mesh, src, dst, [&](int i, NodeId, Port, Port) {
        ++stopped_calls;
        return i < stop;
      });
      EXPECT_EQ(stopped_calls, stop + 1);
    }
  }
}

TEST(RouteXy, XDimensionFirst) {
  const Mesh mesh(6);
  // From (0,0) to (3,3): east until x matches, then south.
  EXPECT_EQ(route_xy(mesh, mesh.node({0, 0}), mesh.node({3, 3})), Port::East);
  EXPECT_EQ(route_xy(mesh, mesh.node({3, 0}), mesh.node({3, 3})), Port::South);
  EXPECT_EQ(route_xy(mesh, mesh.node({5, 5}), mesh.node({2, 1})), Port::West);
}

TEST(RouteXy, LocalAtDestination) {
  const Mesh mesh(4);
  EXPECT_EQ(route_xy(mesh, 5, 5), Port::Local);
}

TEST(WestFirst, WestwardIsDeterministic) {
  const Mesh mesh(6);
  const auto c = west_first_candidates(mesh, mesh.node({4, 2}), mesh.node({1, 4}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], Port::West);
}

TEST(WestFirst, NonWestIsFullyAdaptive) {
  const Mesh mesh(6);
  const auto c = west_first_candidates(mesh, mesh.node({1, 1}), mesh.node({4, 4}));
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NE(std::find(c.begin(), c.end(), Port::East), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), Port::South), c.end());
}

TEST(WestFirst, CandidatesAreAlwaysMinimal) {
  const Mesh mesh(5);
  for (NodeId src = 0; src < mesh.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < mesh.num_nodes(); ++dst) {
      if (src == dst) continue;
      for (const Port p : west_first_candidates(mesh, src, dst)) {
        ASSERT_TRUE(mesh.has_neighbor(src, p));
        const NodeId next = mesh.neighbor(src, p);
        EXPECT_EQ(mesh.hop_distance(next, dst), mesh.hop_distance(src, dst) - 1)
            << "non-minimal candidate " << port_name(p);
      }
    }
  }
}

TEST(WestFirst, NoWestwardTurnAfterOtherDirections) {
  // The turn-model property that guarantees deadlock freedom: West is only
  // ever offered alone.
  const Mesh mesh(6);
  for (NodeId src = 0; src < mesh.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < mesh.num_nodes(); ++dst) {
      if (src == dst) continue;
      const auto c = west_first_candidates(mesh, src, dst);
      ASSERT_FALSE(c.empty());
      if (std::find(c.begin(), c.end(), Port::West) != c.end()) {
        EXPECT_EQ(c.size(), 1u);
      }
    }
  }
}

TEST(SelectByCredits, PicksLeastCongested) {
  const std::vector<Port> cands = {Port::East, Port::South};
  EXPECT_EQ(select_by_credits(cands,
                              [](Port p) { return p == Port::South ? 9 : 3; }),
            Port::South);
  EXPECT_EQ(select_by_credits(cands,
                              [](Port p) { return p == Port::East ? 9 : 3; }),
            Port::East);
}

TEST(SelectByCredits, TieBreaksByOrder) {
  const std::vector<Port> cands = {Port::North, Port::East};
  EXPECT_EQ(select_by_credits(cands, [](Port) { return 5; }), Port::North);
}

}  // namespace
}  // namespace hybridnoc
