#include "traffic/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "expect_input_error.hpp"
#include "noc/network.hpp"

namespace hybridnoc {
namespace {

TEST(Trace, LoadParsesCommentsAndBlanks) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "0 1 2 5\n"
      "3 4 5 1  # trailing comment\n"
      "3 0 7 4\n");
  const auto t = load_trace(in);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], (TraceEntry{0, 1, 2, 5}));
  EXPECT_EQ(t[1], (TraceEntry{3, 4, 5, 1}));
  EXPECT_EQ(t[2], (TraceEntry{3, 0, 7, 4}));
}

TEST(Trace, SaveLoadRoundTrip) {
  const std::vector<TraceEntry> orig = {{0, 1, 2, 5}, {10, 3, 4, 4}, {10, 5, 6, 1}};
  std::stringstream buf;
  save_trace(buf, orig);
  EXPECT_EQ(load_trace(buf), orig);
}

TEST(Trace, ParseWriteParseEquality) {
  // Starting from text (not a TraceEntry vector): parse, re-serialize, parse
  // again — the two parses must agree even though comments and spacing are
  // normalized away.
  std::istringstream in(
      "# captured from a hetero run\n"
      "0 1 2 5\n"
      "\n"
      "7 3 4 1   # burst start\n"
      "7 3 4 1\n"
      "12 0 15 9\n");
  const auto first = load_trace(in);
  ASSERT_EQ(first.size(), 4u);
  std::stringstream buf;
  save_trace(buf, first);
  const auto second = load_trace(buf);
  EXPECT_EQ(second, first);
  // And the normalized form is a fixed point: writing again changes nothing.
  std::stringstream buf2;
  save_trace(buf2, second);
  EXPECT_EQ(buf2.str(), buf.str());
}

TEST(Trace, RoundTripPreservesBoundaryValues) {
  const std::vector<TraceEntry> orig = {
      {0, 0, 0, 1},  // min flits, self-loop node ids
      {0, 63, 63, 1},
      {1000000000, 5, 6, 1000},  // large cycle and payload
  };
  std::stringstream buf;
  save_trace(buf, orig);
  EXPECT_EQ(load_trace(buf), orig);
}

TEST(TraceDeathTest, RejectsOutOfOrderAndMalformed) {
  std::istringstream bad_order("5 0 1 5\n3 0 1 5\n");
  EXPECT_INPUT_ERROR((void)load_trace(bad_order), "cycle order");
  std::istringstream malformed("1 2\n");
  EXPECT_INPUT_ERROR((void)load_trace(malformed), "malformed");
}

TEST(TraceDeathTest, RejectsInvalidFieldValues) {
  std::istringstream zero_flits("0 1 2 0\n");
  EXPECT_INPUT_ERROR((void)load_trace(zero_flits), "invalid");
  std::istringstream negative_flits("0 1 2 -3\n");
  EXPECT_INPUT_ERROR((void)load_trace(negative_flits), "invalid");
  std::istringstream negative_src("0 -1 2 5\n");
  EXPECT_INPUT_ERROR((void)load_trace(negative_src), "invalid");
  std::istringstream negative_dst("0 1 -2 5\n");
  EXPECT_INPUT_ERROR((void)load_trace(negative_dst), "invalid");
  std::istringstream garbage_tokens("0 one 2 5\n");
  EXPECT_INPUT_ERROR((void)load_trace(garbage_tokens), "malformed");
  std::istringstream comment_mid_fields("0 1 # 2 5\n");
  EXPECT_INPUT_ERROR((void)load_trace(comment_mid_fields), "malformed");
}

TEST(Trace, MalformedLineNamesSourceAndLine) {
  std::istringstream in("# header\n0 1 2 5\n\n3 4 oops 1\n");
  const std::string what = input_error([&] { (void)load_trace(in, "t.trace"); });
  EXPECT_TRUE(what.starts_with("t.trace:4: malformed trace line")) << what;
}

TEST(TraceTraffic, EmitsAtScheduledCycles) {
  TraceTraffic t({{2, 0, 1, 5}, {2, 3, 4, 4}, {5, 1, 0, 5}});
  std::vector<std::tuple<Cycle, NodeId, NodeId>> got;
  for (Cycle c = 0; c < 8; ++c) {
    t.generate(c, [&](NodeId s, NodeId d, int) { got.emplace_back(c, s, d); });
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_tuple(Cycle{2}, NodeId{0}, NodeId{1}));
  EXPECT_EQ(got[1], std::make_tuple(Cycle{2}, NodeId{3}, NodeId{4}));
  EXPECT_EQ(got[2], std::make_tuple(Cycle{5}, NodeId{1}, NodeId{0}));
  EXPECT_TRUE(t.exhausted());
}

TEST(TraceTraffic, LoopRepeatsWithPeriodShift) {
  TraceTraffic t({{0, 0, 1, 5}, {3, 2, 3, 5}}, /*loop=*/true);
  int emitted = 0;
  std::vector<Cycle> at;
  for (Cycle c = 0; c < 12; ++c) {
    t.generate(c, [&](NodeId, NodeId, int) {
      ++emitted;
      at.push_back(c);
    });
  }
  // Period = 4: injections at 0,3, 4,7, 8,11.
  EXPECT_EQ(emitted, 6);
  EXPECT_EQ(at, (std::vector<Cycle>{0, 3, 4, 7, 8, 11}));
  EXPECT_FALSE(t.exhausted());
}

TEST(TraceTraffic, ReplayThroughNetworkDeliversEverything) {
  // Drive a real network from a trace; every entry must be delivered.
  std::vector<TraceEntry> entries;
  for (int i = 0; i < 50; ++i) {
    entries.push_back({static_cast<Cycle>(i * 7), static_cast<NodeId>(i % 16),
                       static_cast<NodeId>((i * 5 + 3) % 16), 5});
  }
  for (auto& e : entries) {
    if (e.src == e.dst) e.dst = static_cast<NodeId>((e.dst + 1) % 16);
  }
  Network net(NocConfig::packet_vc4(4));
  std::uint64_t delivered = 0;
  net.set_deliver_handler([&](const PacketPtr&, Cycle) { ++delivered; });
  TraceTraffic t(entries);
  PacketId id = 1;
  for (Cycle c = 0; c < 3000 && !(t.exhausted() && net.quiescent()); ++c) {
    t.generate(c, [&](NodeId s, NodeId d, int flits) {
      auto p = std::make_shared<Packet>();
      p->id = id++;
      p->src = s;
      p->dst = d;
      p->num_flits = flits;
      net.ni(s).send(std::move(p), net.now());
    });
    net.tick();
  }
  EXPECT_EQ(delivered, entries.size());
}

}  // namespace
}  // namespace hybridnoc
