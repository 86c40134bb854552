// Property suite for the NN-dataflow workload generator: descriptor parsing
// (including every HN_CHECK rejection path), seeded twin-run determinism,
// structural trace invariants (in-bounds, never self-directed, sorted), and
// exact per-edge flit conservation against the DAG's declared byte volumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/geometry.hpp"
#include "expect_input_error.hpp"
#include "workloads/nn_dataflow.hpp"

namespace hybridnoc {
namespace {

const char kTinyDag[] = R"(
# two-stage toy pipeline
mesh 4
layer in   0 0 4 1
layer mid  0 1 4 2
layer out  0 3 4 1
edge in  mid 512
edge mid out 256
)";

TEST(NnDescriptorTest, ParsesLayersEdgesAndDepths) {
  const NnDescriptor d = parse_nn_descriptor_string(kTinyDag, "tiny");
  EXPECT_EQ(d.k, 4);
  ASSERT_EQ(d.layers.size(), 3u);
  ASSERT_EQ(d.edges.size(), 2u);
  EXPECT_EQ(d.layers[0].name, "in");
  EXPECT_EQ(d.layers[1].tiles(), 8);
  EXPECT_EQ(d.layers[0].depth, 0);
  EXPECT_EQ(d.layers[1].depth, 1);
  EXPECT_EQ(d.layers[2].depth, 2);
  EXPECT_EQ(d.max_depth(), 2);
  EXPECT_EQ(d.edges[0].bytes, 512);
  EXPECT_EQ(d.layer_index("mid"), 1);
  EXPECT_EQ(d.layer_index("nope"), -1);
}

TEST(NnDescriptorTest, BuiltinsParseForBothMeshSizes) {
  for (const std::string& name : builtin_nn_names()) {
    for (const int k : {6, 8}) {
      SCOPED_TRACE(name + " k=" + std::to_string(k));
      const NnDescriptor d = builtin_nn_descriptor(name, k);
      EXPECT_EQ(d.k, k);
      EXPECT_GE(d.layers.size(), 4u);
      EXPECT_GE(d.edges.size(), 3u);
      EXPECT_GE(d.max_depth(), 2);
    }
  }
  EXPECT_EQ(builtin_nn_descriptor_text("resnet50", 7), nullptr);
  EXPECT_EQ(builtin_nn_descriptor_text("alexnet", 8), nullptr);
}

TEST(NnDescriptorDeathTest, RejectsMalformedDescriptors) {
  // Bad layer refs, negative volumes, out-of-grid placement — plus the
  // remaining structural checks.
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string(
                         "mesh 4\nlayer a 0 0 4 1\nlayer b 0 1 4 1\n"
                         "edge a nosuch 64\n"),
                     "unknown layer");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string(
                         "mesh 4\nlayer a 0 0 4 1\nlayer b 0 1 4 1\n"
                         "edge a b -64\n"),
                     "positive");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string(
                         "mesh 4\nlayer a 0 0 4 1\nlayer b 3 3 2 2\n"
                         "edge a b 64\n"),
                     "outside the mesh");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string("layer a 0 0 1 1\n"),
                     "mesh directive must come first");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string("mesh 1\nlayer a 0 0 1 1\n"),
                     ">= 2");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string(
                         "mesh 4\nlayer a 0 0 4 1\nlayer a 0 1 4 1\n"),
                     "duplicate layer");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string(
                         "mesh 4\nlayer a 0 0 1 1\nfrobnicate a\n"),
                     "unknown directive");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string(
                         "mesh 4\nlayer a 0 0 1 1\nlayer b 1 0 1 1\n"
                         "edge a b 64\nedge b a 64\n"),
                     "cycle");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string(
                         "mesh 4\nlayer a 0 0 1 1\nlayer b 0 0 1 1\n"
                         "edge a b 64\n"),
                     "non-self tile pair");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string("mesh 4\nlayer a 0 0 1 1\n"),
                     "no edges");
  EXPECT_INPUT_ERROR(parse_nn_descriptor_string("mesh 4\nlayer a 0 0\n"),
                     "malformed layer");
}

TEST(NnDescriptorTest, MalformedLineNamesSourceAndLine) {
  const std::string what = input_error([] {
    (void)parse_nn_descriptor_string(
        "# two layers\nmesh 4\nlayer a 0 0 4 1\n\nlayer b 0 1\n", "d.nn");
  });
  EXPECT_TRUE(what.starts_with("d.nn:5: nn descriptor: malformed layer line"))
      << what;
}

TEST(NnTraceTest, TwinRunsAreIdenticalAndSeedsDiffer) {
  const NnDescriptor d = builtin_nn_descriptor("transformer", 6);
  NnGenParams p;
  p.seed = 42;
  const auto a = generate_nn_trace(d, p);
  const auto b = generate_nn_trace(d, p);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  p.seed = 43;
  EXPECT_NE(a, generate_nn_trace(d, p));
}

TEST(NnTraceTest, EntriesInBoundsNeverSelfDirectedAndSorted) {
  for (const std::string& name : builtin_nn_names()) {
    for (const int k : {6, 8}) {
      SCOPED_TRACE(name + " k=" + std::to_string(k));
      const NnDescriptor d = builtin_nn_descriptor(name, k);
      const auto trace = generate_nn_trace(d, NnGenParams{});
      ASSERT_FALSE(trace.empty());
      Cycle prev = 0;
      for (const TraceEntry& e : trace) {
        ASSERT_GE(e.src, 0);
        ASSERT_LT(e.src, k * k);
        ASSERT_GE(e.dst, 0);
        ASSERT_LT(e.dst, k * k);
        ASSERT_NE(e.src, e.dst);
        ASSERT_GE(e.flits, 1);
        ASSERT_GE(e.cycle, prev);
        prev = e.cycle;
      }
    }
  }
}

TEST(NnTraceTest, PerEdgeFlitTotalsMatchDeclaredByteVolumes) {
  // kTinyDag's two edges use disjoint tile sets, so every trace entry
  // attributes to exactly one edge by (src, dst) membership.
  const NnDescriptor d = parse_nn_descriptor_string(kTinyDag, "tiny");
  NnGenParams p;
  p.iterations = 3;
  p.intensity = 0.9;  // non-integral scaling exercises the ceil rounding
  const auto trace = generate_nn_trace(d, p);

  std::map<std::pair<NodeId, NodeId>, std::int64_t> by_pair;
  for (const TraceEntry& e : trace) by_pair[{e.src, e.dst}] += e.flits;

  std::int64_t attributed = 0;
  for (const NnEdge& edge : d.edges) {
    std::int64_t edge_total = 0;
    for (const auto& pr : nn_edge_tile_pairs(d, edge)) {
      const auto it = by_pair.find(pr);
      if (it != by_pair.end()) edge_total += it->second;
    }
    EXPECT_EQ(edge_total,
              static_cast<std::int64_t>(p.iterations) *
                  nn_edge_flits(edge, p))
        << "edge " << d.layers[edge.producer].name << " -> "
        << d.layers[edge.consumer].name;
    attributed += edge_total;
  }
  // Nothing outside the declared flows.
  std::int64_t total = 0;
  for (const TraceEntry& e : trace) total += e.flits;
  EXPECT_EQ(total, attributed);
}

TEST(NnTraceTest, EdgePairsArePartitionedNotAllToAll) {
  // The aligned mapping must produce max(P, C) flows, not P*C — that
  // concentration is what lets circuit establishment see recurring pairs.
  const NnDescriptor d = builtin_nn_descriptor("resnet50", 8);
  for (const NnEdge& e : d.edges) {
    const auto pairs = nn_edge_tile_pairs(d, e);
    const int p_tiles = d.layers[e.producer].tiles();
    const int c_tiles = d.layers[e.consumer].tiles();
    EXPECT_LE(static_cast<int>(pairs.size()), std::max(p_tiles, c_tiles));
    std::set<std::pair<NodeId, NodeId>> uniq(pairs.begin(), pairs.end());
    EXPECT_EQ(uniq.size(), pairs.size());
    for (const auto& [s, t] : pairs) EXPECT_NE(s, t);
  }
}

TEST(NnTraceTest, AutoStageSizingBoundsPerTileRate) {
  const NnDescriptor d = builtin_nn_descriptor("gnmt", 6);
  const NnGenParams p;
  const Cycle stage = nn_auto_stage_cycles(d, p);
  EXPECT_GE(stage, 64u);
  // Busiest layer's per-tile outgoing flits must fit the window at <= ~0.5
  // flits/cycle.
  for (size_t l = 0; l < d.layers.size(); ++l) {
    std::int64_t out = 0;
    for (const NnEdge& e : d.edges) {
      if (e.producer == static_cast<int>(l)) out += nn_edge_flits(e, p);
    }
    const std::int64_t per_tile =
        (out + d.layers[l].tiles() - 1) / d.layers[l].tiles();
    EXPECT_LE(static_cast<Cycle>(2 * per_tile), stage);
  }
}

}  // namespace
}  // namespace hybridnoc
