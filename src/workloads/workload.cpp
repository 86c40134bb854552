#include "workloads/workload.hpp"

#include "common/input.hpp"

namespace hybridnoc {

bool is_workload_spec(const std::string& spec) {
  return spec == "coherence" || spec.rfind("nn:", 0) == 0;
}

double trace_offered_rate(const std::vector<TraceEntry>& entries, int nodes) {
  if (entries.empty()) return 0.0;
  std::int64_t flits = 0;
  for (const TraceEntry& e : entries) flits += e.flits;
  const Cycle span = entries.back().cycle + 1;  // TraceTraffic's loop period
  return static_cast<double>(flits) /
         (static_cast<double>(span) * static_cast<double>(nodes));
}

WorkloadTrace build_workload(const std::string& spec,
                             const WorkloadOptions& opts) {
  if (!is_workload_spec(spec)) {
    throw InputError("unknown workload spec '" + spec +
                     "' (expected nn:<name>, nn:@<file> or coherence)");
  }
  WorkloadTrace out;
  out.name = spec;
  if (spec == "coherence") {
    CoherenceParams cp;
    cp.k = opts.k;
    cp.cycles = opts.coherence_cycles;
    cp.request_rate = opts.coherence_request_rate * opts.intensity;
    cp.seed = opts.seed;
    out.entries = generate_coherence_trace(cp).entries;
  } else {
    const std::string arg = spec.substr(3);
    NnDescriptor desc;
    if (!arg.empty() && arg[0] == '@') {
      const std::string path = arg.substr(1);
      std::ifstream in = open_input(path);
      desc = parse_nn_descriptor(in, path);
      check_input(desc.k == opts.k,
                  "nn descriptor mesh radix does not match the run's mesh");
    } else {
      desc = builtin_nn_descriptor(arg, opts.k);
    }
    NnGenParams np;
    np.iterations = opts.nn_iterations;
    np.intensity = opts.intensity;
    np.seed = opts.seed;
    out.entries = generate_nn_trace(desc, np);
  }
  out.offered_rate = trace_offered_rate(out.entries, opts.k * opts.k);
  return out;
}

}  // namespace hybridnoc
