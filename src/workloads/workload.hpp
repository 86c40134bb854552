// Workload zoo front-end: maps a `--workload` spec string onto a generated
// trace so the CLI, the benches and the test harnesses all resolve specs
// identically.
//
// Spec grammar:
//   nn:<name>    bundled NN-dataflow descriptor (resnet50, transformer, gnmt)
//   nn:@<path>   NN-dataflow descriptor loaded from a file
//   coherence    coherence request/reply traffic
// Scaling knobs (mesh radix, load intensity, horizon, seed) come from
// WorkloadOptions, not the spec, so the same spec runs on any mesh.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "traffic/trace.hpp"
#include "workloads/coherence.hpp"
#include "workloads/nn_dataflow.hpp"

namespace hybridnoc {

struct WorkloadOptions {
  int k = 8;                ///< mesh radix the trace is generated for
  std::uint64_t seed = 1;
  double intensity = 1.0;   ///< scales NN byte volumes / coherence rate
  int nn_iterations = 4;
  Cycle coherence_cycles = 4000;
  double coherence_request_rate = 0.02;  ///< before intensity scaling
};

struct WorkloadTrace {
  std::string name;  ///< resolved label, e.g. "nn:resnet50", "coherence"
  std::vector<TraceEntry> entries;
  /// Offered load the trace represents when looped: total payload flits
  /// divided by (span * nodes), comparable to RunParams::injection_rate.
  double offered_rate = 0.0;
};

/// True when `spec` names a workload this module can build.
bool is_workload_spec(const std::string& spec);

/// Resolve `spec` and generate its trace. Throws InputError on an unknown
/// spec, an unknown builtin descriptor name, an unreadable or malformed
/// descriptor file, or generator options out of range.
WorkloadTrace build_workload(const std::string& spec,
                             const WorkloadOptions& opts);

/// Offered load of a looped trace: total flits / (span * nodes); 0 for an
/// empty trace.
double trace_offered_rate(const std::vector<TraceEntry>& entries, int nodes);

}  // namespace hybridnoc
