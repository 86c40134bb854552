#include "workloads/nn_dataflow.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/assert.hpp"
#include "common/config.hpp"
#include "common/geometry.hpp"
#include "common/input.hpp"
#include "common/rng.hpp"

namespace hybridnoc {

int NnDescriptor::layer_index(const std::string& layer_name) const {
  for (size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].name == layer_name) return static_cast<int>(i);
  }
  return -1;
}

int NnDescriptor::max_depth() const {
  int d = 0;
  for (const NnLayer& l : layers) d = std::max(d, l.depth);
  return d;
}

namespace {

// Longest-path stage index per layer via Kahn's algorithm; doubles as the
// cycle check (false: a node left unprocessed sits on a cycle).
bool compute_depths(NnDescriptor& d) {
  std::vector<int> indegree(d.layers.size(), 0);
  for (const NnEdge& e : d.edges) ++indegree[e.consumer];
  std::vector<int> ready;
  for (size_t i = 0; i < d.layers.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(static_cast<int>(i));
  }
  size_t processed = 0;
  while (!ready.empty()) {
    const int l = ready.back();
    ready.pop_back();
    ++processed;
    for (const NnEdge& e : d.edges) {
      if (e.producer != l) continue;
      d.layers[e.consumer].depth =
          std::max(d.layers[e.consumer].depth, d.layers[l].depth + 1);
      if (--indegree[e.consumer] == 0) ready.push_back(e.consumer);
    }
  }
  return processed == d.layers.size();
}

/// Row-major tile ids of a layer's placement rectangle.
std::vector<NodeId> layer_tiles(const NnLayer& l, const Mesh& mesh) {
  std::vector<NodeId> tiles;
  tiles.reserve(static_cast<size_t>(l.tiles()));
  for (int y = l.y; y < l.y + l.h; ++y) {
    for (int x = l.x; x < l.x + l.w; ++x) {
      tiles.push_back(mesh.node({x, y}));
    }
  }
  return tiles;
}

}  // namespace

NnDescriptor parse_nn_descriptor(std::istream& in, const std::string& name) {
  NnDescriptor d;
  d.name = name;
  LineReader reader(in, name);
  std::string line;
  while (reader.next(&line)) {
    const std::string directive(LineFields(reader, line, "").word());
    LineFields f(reader, line, "nn descriptor: malformed " + directive + " line");
    f.word();  // the directive
    if (directive == "mesh") {
      reader.check(d.k == 0, "nn descriptor: duplicate mesh directive");
      f.read(d.k);
      f.end();
      reader.check(d.k >= 2 && d.k <= NocConfig::kMaxMeshRadix,
                   "nn descriptor: mesh radix must be an integer >= 2 "
                   "(and at most 46340)");
      continue;
    }
    reader.check(d.k != 0, "nn descriptor: mesh directive must come first");
    if (directive == "layer") {
      NnLayer l{std::string(f.word()), f.num<int>(), f.num<int>(), f.num<int>(),
                f.num<int>()};
      f.end();
      reader.check(d.layer_index(l.name) < 0,
                   "nn descriptor: duplicate layer name");
      reader.check(l.w >= 1 && l.h >= 1 && l.x >= 0 && l.y >= 0 &&
                       l.x <= d.k - l.w && l.y <= d.k - l.h,
                   "nn descriptor: layer placement outside the mesh grid");
      d.layers.push_back(std::move(l));
    } else if (directive == "edge") {
      const std::string prod(f.word()), cons(f.word());
      NnEdge e;
      f.read(e.bytes);
      f.end();
      e.producer = d.layer_index(prod);
      e.consumer = d.layer_index(cons);
      reader.check(e.producer >= 0 && e.consumer >= 0,
                   "nn descriptor: edge references unknown layer");
      reader.check(e.bytes > 0,
                   "nn descriptor: edge byte volume must be positive");
      // Only a one-tile layer feeding its own tile has no tile pair that
      // crosses the network (nn_edge_tile_pairs finds one otherwise).
      const NnLayer& a = d.layers[e.producer];
      const NnLayer& b = d.layers[e.consumer];
      reader.check(a.tiles() > 1 || b.tiles() > 1 || a.x != b.x || a.y != b.y,
                   "nn descriptor: edge has no non-self tile pair");
      d.edges.push_back(e);
    } else {
      reader.fail("nn descriptor: unknown directive '" + directive + "'");
    }
  }
  reader.check(!d.layers.empty(), "nn descriptor: no layers");
  reader.check(!d.edges.empty(), "nn descriptor: no edges");
  reader.check(compute_depths(d), "nn descriptor: layer graph has a cycle");
  return d;
}

NnDescriptor parse_nn_descriptor_string(const std::string& text,
                                        const std::string& name) {
  std::istringstream in(text);
  return parse_nn_descriptor(in, name);
}

// ---------------------------------------------------------------------------
// Bundled descriptors. Byte volumes are inter-stage activation footprints of
// the eponymous networks, coarsened to one edge per pipeline stage and scaled
// down (~1/16 of fp16 activations) so default-intensity runs sit in the
// low/mid-load regime the accuracy harness covers. Placements tile the model
// as a left-to-right pipeline: early stages (large activations, few weights)
// get wide bands, late stages narrow ones.

namespace {

const char kResnet50_6[] = R"(# resnet50-like pipeline, 6x6 mesh
mesh 6
layer stem   0 0 6 1
layer stage1 0 1 6 1
layer stage2 0 2 6 1
layer stage3 0 3 6 1
layer stage4 0 4 6 1
layer fc     0 5 6 1
edge stem   stage1 12544
edge stage1 stage2 6272
edge stage2 stage3 3136
edge stage3 stage4 1568
edge stage4 fc     784
)";

const char kResnet50_8[] = R"(# resnet50-like pipeline, 8x8 mesh
mesh 8
layer stem   0 0 8 1
layer stage1 0 1 8 2
layer stage2 0 3 8 2
layer stage3 0 5 8 2
layer fc     0 7 8 1
edge stem   stage1 25088
edge stage1 stage2 12544
edge stage2 stage3 6272
edge stage3 fc     1568
)";

const char kTransformer_6[] = R"(# transformer-block-like DAG, 6x6 mesh
mesh 6
layer embed 0 0 6 1
layer qproj 0 1 2 2
layer kproj 2 1 2 2
layer vproj 4 1 2 2
layer attn  0 3 6 1
layer ffn   0 4 6 1
layer out   0 5 6 1
edge embed qproj 4096
edge embed kproj 4096
edge embed vproj 4096
edge qproj attn  4096
edge kproj attn  4096
edge vproj attn  4096
edge attn  ffn   8192
edge ffn   out   4096
)";

const char kTransformer_8[] = R"(# transformer-block-like DAG, 8x8 mesh
mesh 8
layer embed 0 0 8 1
layer qproj 0 1 2 3
layer kproj 3 1 2 3
layer vproj 6 1 2 3
layer attn  0 4 8 1
layer ffn   0 5 8 2
layer out   0 7 8 1
edge embed qproj 8192
edge embed kproj 8192
edge embed vproj 8192
edge qproj attn  8192
edge kproj attn  8192
edge vproj attn  8192
edge attn  ffn   16384
edge ffn   out   8192
)";

const char kGnmt_6[] = R"(# gnmt-like encoder/decoder with attention, 6x6 mesh
mesh 6
layer enc1 0 0 6 1
layer enc2 0 1 6 1
layer enc3 0 2 6 1
layer dec1 0 3 6 1
layer dec2 0 4 6 1
layer dec3 0 5 6 1
edge enc1 enc2 4096
edge enc2 enc3 4096
edge enc3 dec1 4096
edge dec1 dec2 4096
edge dec2 dec3 4096
edge enc3 dec2 2048
edge enc3 dec3 2048
)";

const char kGnmt_8[] = R"(# gnmt-like encoder/decoder with attention, 8x8 mesh
mesh 8
layer enc1 0 0 8 1
layer enc2 0 1 8 1
layer enc3 0 2 8 2
layer dec1 0 4 8 2
layer dec2 0 6 8 1
layer dec3 0 7 8 1
edge enc1 enc2 8192
edge enc2 enc3 8192
edge enc3 dec1 8192
edge dec1 dec2 8192
edge dec2 dec3 8192
edge enc3 dec2 4096
edge enc3 dec3 4096
)";

}  // namespace

const char* builtin_nn_descriptor_text(const std::string& name, int k) {
  if (name == "resnet50") {
    if (k == 6) return kResnet50_6;
    if (k == 8) return kResnet50_8;
  } else if (name == "transformer") {
    if (k == 6) return kTransformer_6;
    if (k == 8) return kTransformer_8;
  } else if (name == "gnmt") {
    if (k == 6) return kGnmt_6;
    if (k == 8) return kGnmt_8;
  }
  return nullptr;
}

NnDescriptor builtin_nn_descriptor(const std::string& name, int k) {
  const char* text = builtin_nn_descriptor_text(name, k);
  check_input(text != nullptr,
              "unknown builtin nn descriptor (names: resnet50, transformer, "
              "gnmt; meshes: 6, 8)");
  return parse_nn_descriptor_string(text, name);
}

std::vector<std::string> builtin_nn_names() {
  return {"resnet50", "transformer", "gnmt"};
}

std::vector<std::pair<NodeId, NodeId>> nn_edge_tile_pairs(
    const NnDescriptor& d, const NnEdge& e) {
  const Mesh mesh(d.k);
  const auto prod = layer_tiles(d.layers[e.producer], mesh);
  const auto cons = layer_tiles(d.layers[e.consumer], mesh);
  const size_t np = prod.size(), nc = cons.size();
  // Aligned partitioned mapping: the larger side's tile i talks to the
  // smaller side's tile i mod size, the way dataflow mappers partition a
  // tensor across PEs. When overlapping placements make every aligned pair
  // self-directed, rotate the consumer side until a crossing pair appears
  // (the parser guarantees one exists for some rotation).
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (size_t shift = 0; shift < std::max(np, nc); ++shift) {
    pairs.clear();
    if (nc >= np) {
      for (size_t j = 0; j < nc; ++j) {
        const NodeId s = prod[j % np], t = cons[(j + shift) % nc];
        if (s != t) pairs.emplace_back(s, t);
      }
    } else {
      for (size_t i = 0; i < np; ++i) {
        const NodeId s = prod[i], t = cons[(i + shift) % nc];
        if (s != t) pairs.emplace_back(s, t);
      }
    }
    if (!pairs.empty()) return pairs;
  }
  HN_CHECK_MSG(false, "nn descriptor: edge has no non-self tile pair");
  return pairs;
}

std::int64_t nn_edge_flits(const NnEdge& e, const NnGenParams& p) {
  const double scaled = static_cast<double>(e.bytes) * p.intensity;
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(scaled / static_cast<double>(p.channel_bytes))));
}

Cycle nn_auto_stage_cycles(const NnDescriptor& d, const NnGenParams& p) {
  // Size the stage window so no producer tile offers more than ~0.5
  // flits/cycle during its burst: window = 2 * (outgoing flits per tile),
  // taken over the busiest layer, floored at 64 cycles so tiny descriptors
  // still produce a resolvable burst structure.
  Cycle window = 64;
  for (size_t l = 0; l < d.layers.size(); ++l) {
    std::int64_t out_flits = 0;
    for (const NnEdge& e : d.edges) {
      if (e.producer == static_cast<int>(l)) out_flits += nn_edge_flits(e, p);
    }
    const std::int64_t per_tile =
        (out_flits + d.layers[l].tiles() - 1) / d.layers[l].tiles();
    window = std::max(window, static_cast<Cycle>(2 * per_tile));
  }
  return window;
}

std::vector<TraceEntry> generate_nn_trace(const NnDescriptor& d,
                                          const NnGenParams& p) {
  check_input(p.iterations >= 1, "nn iterations must be >= 1");
  check_input(p.flits_per_packet >= 1 && p.channel_bytes >= 1,
              "nn flits_per_packet and channel_bytes must be >= 1");
  check_input(p.intensity > 0.0, "nn intensity must be positive");

  const Cycle stage =
      p.stage_cycles > 0 ? p.stage_cycles : nn_auto_stage_cycles(d, p);
  const Cycle interval =
      p.iteration_interval > 0
          ? p.iteration_interval
          : stage * static_cast<Cycle>(d.max_depth() + 1);
  Rng rng(p.seed);

  // Tile pairs per edge are enumerated once, in aligned-mapping order, so
  // the per-pair flit split is stable across runs.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> edge_pairs;
  edge_pairs.reserve(d.edges.size());
  for (const NnEdge& e : d.edges) edge_pairs.push_back(nn_edge_tile_pairs(d, e));

  std::vector<TraceEntry> entries;
  for (int it = 0; it < p.iterations; ++it) {
    for (size_t ei = 0; ei < d.edges.size(); ++ei) {
      const NnEdge& e = d.edges[ei];
      const auto& pairs = edge_pairs[ei];
      const std::int64_t total = nn_edge_flits(e, p);
      const std::int64_t np = static_cast<std::int64_t>(pairs.size());
      const std::int64_t base = total / np;
      const std::int64_t rem = total % np;
      const Cycle start = static_cast<Cycle>(it) * interval +
                          static_cast<Cycle>(d.layers[e.producer].depth) * stage;
      for (std::int64_t pi = 0; pi < np; ++pi) {
        std::int64_t flits = base + (pi < rem ? 1 : 0);
        if (flits == 0) continue;
        const std::int64_t packets =
            (flits + p.flits_per_packet - 1) / p.flits_per_packet;
        for (std::int64_t j = 0; j < packets; ++j) {
          const int f = static_cast<int>(
              std::min<std::int64_t>(flits, p.flits_per_packet));
          flits -= f;
          // Spread the pair's packets evenly across the stage window with a
          // small seeded jitter so packets from different pairs interleave
          // instead of arriving in lock-step.
          const Cycle slot =
              start + static_cast<Cycle>(j) * stage / static_cast<Cycle>(packets);
          const Cycle jspan = std::max<Cycle>(
              1, stage / (2 * static_cast<Cycle>(packets)));
          const Cycle cycle = slot + rng.uniform_int(jspan);
          entries.push_back(TraceEntry{cycle, pairs[pi].first,
                                       pairs[pi].second, f});
        }
      }
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.cycle < b.cycle;
                   });
  return entries;
}

}  // namespace hybridnoc
