// NN-dataflow workload generator: application-shaped traffic for the hybrid
// NoC, replacing the synthetic uniform/hotspot strawman with the long-lived
// producer-consumer flows circuit switching was designed for.
//
// A workload is a small DAG descriptor (checked-in text format): layers are
// placed as tile rectangles on the k x k mesh, edges carry a per-iteration
// byte volume split across an aligned partitioned tile mapping — producer
// tile i feeds the consumer tiles congruent to i (mod the smaller side), the
// way dataflow mappers partition an output tensor across PEs, giving
// max(producer_tiles, consumer_tiles) heavy recurring pairs rather than a
// diluted all-to-all. The generator pipelines iterations: layer `L` of
// iteration `i` bursts during stage window `i * interval + depth(L) *
// stage_cycles`, so once the pipeline fills, every stage is active
// simultaneously and each tile pair is a long-lived point-to-point flow —
// exactly the traffic profiled hybrid switching pre-establishes circuits
// for.
//
// Descriptor grammar (one directive per line, `#` comments, blank lines
// ignored):
//   mesh <k>                      required, first non-comment line
//   layer <name> <x> <y> <w> <h>  tile rectangle [x, x+w) x [y, y+h)
//   edge <producer> <consumer> <bytes>
// Parsing throws InputError, naming the line, on malformed lines, unknown
// layer references, non-positive byte volumes, out-of-grid placements,
// duplicate layers and cyclic edge sets — the descriptor tests exercise
// each path.
//
// Byte-volume accounting is exact and testable: per edge and iteration the
// generator emits exactly nn_edge_flits(edge, params) payload flits (bytes
// scaled by `intensity`, divided by `channel_bytes`, rounded up), split
// across the edge's tile pairs with the remainder given to the lowest pair
// indices, and packed into packets of at most `flits_per_packet` flits.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "traffic/trace.hpp"

namespace hybridnoc {

struct NnLayer {
  std::string name;
  int x = 0, y = 0;  ///< top-left tile of the placement rectangle
  int w = 1, h = 1;  ///< rectangle extent (tiles)
  int depth = 0;     ///< longest-path stage index, computed by the parser
  int tiles() const { return w * h; }
};

struct NnEdge {
  int producer = -1;  ///< index into NnDescriptor::layers
  int consumer = -1;
  std::int64_t bytes = 0;  ///< payload bytes per iteration
};

struct NnDescriptor {
  std::string name;
  int k = 0;  ///< mesh radix the placements were written for
  std::vector<NnLayer> layers;
  std::vector<NnEdge> edges;

  int layer_index(const std::string& layer_name) const;  ///< -1 when absent
  int max_depth() const;
};

/// Parse a descriptor stream. Throws InputError("<name>:<line>: ...") on any
/// malformed input; `name` labels the workload in summaries.
NnDescriptor parse_nn_descriptor(std::istream& in,
                                 const std::string& name = "nn");
NnDescriptor parse_nn_descriptor_string(const std::string& text,
                                        const std::string& name = "nn");

/// Bundled descriptors: "resnet50", "transformer", "gnmt", each scaled for
/// k = 6 and k = 8 meshes. Returns nullptr for unknown (name, k).
const char* builtin_nn_descriptor_text(const std::string& name, int k);
/// Parse a bundled descriptor; throws InputError on unknown (name, k).
NnDescriptor builtin_nn_descriptor(const std::string& name, int k);
std::vector<std::string> builtin_nn_names();

struct NnGenParams {
  int iterations = 4;        ///< pipeline passes to schedule
  Cycle stage_cycles = 0;    ///< burst window per stage; 0 = auto-size so no
                             ///< producer tile exceeds ~0.5 flits/cycle
  Cycle iteration_interval = 0;  ///< 0 = auto: stage_cycles * (max_depth + 1),
                                 ///< a full pipeline (every stage live)
  int flits_per_packet = 5;  ///< packet granularity (ps_data_flits)
  int channel_bytes = 16;    ///< bytes per flit (Table I channel width)
  double intensity = 1.0;    ///< scales every edge's byte volume
  std::uint64_t seed = 1;    ///< jitter stream; same seed => identical trace
};

/// Payload flits one edge carries per iteration under `p` (what
/// generate_nn_trace guarantees to emit for it, exactly).
std::int64_t nn_edge_flits(const NnEdge& e, const NnGenParams& p);

/// The edge's aligned partitioned tile pairs (src, dst), self pairs
/// excluded; the exact flow set generate_nn_trace schedules. Exposed for
/// the flit-conservation property suite.
std::vector<std::pair<NodeId, NodeId>> nn_edge_tile_pairs(
    const NnDescriptor& d, const NnEdge& e);

/// Auto-sized stage window for `d` under `p` (the value used when
/// p.stage_cycles == 0), exposed for tests and load accounting.
Cycle nn_auto_stage_cycles(const NnDescriptor& d, const NnGenParams& p);

/// Deterministic trace: sorted by cycle, every entry in-mesh and never
/// self-directed, per-edge flit totals exactly iterations * nn_edge_flits.
std::vector<TraceEntry> generate_nn_trace(const NnDescriptor& d,
                                          const NnGenParams& p);

}  // namespace hybridnoc
