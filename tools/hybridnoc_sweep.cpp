// Crash-safe sweep front end.
//
//   hybridnoc_sweep expand --spec FILE
//       Print the expanded points (label + content hash) without running.
//
//   hybridnoc_sweep run --spec FILE --out DIR [options]
//       Run (or resume) the sweep. Each point is measured by run_synthetic,
//       so its row equals `hybridnoc synth` for the same config and seed.
//       Results land in DIR/results/, progress in DIR/journal, and the
//       deterministic aggregate in DIR/aggregate.tsv. Rerunning after any
//       interruption — kill -9 included — resumes from the journal and
//       produces a byte-identical aggregate.
//
// Exit codes: 0 = every point completed, 3 = completed with quarantined
// points (see the degradation report on stdout), 2 = usage/spec/
// environment error.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/input.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"

namespace {

using hybridnoc::check_input;
using hybridnoc::Flags;
using hybridnoc::InputError;
using hybridnoc::sweep::SpecError;
using hybridnoc::sweep::SweepOptions;
using hybridnoc::sweep::SweepReport;
using hybridnoc::sweep::SweepSpec;

void usage() {
  std::fprintf(
      stderr,
      "usage: hybridnoc_sweep expand --spec FILE\n"
      "       hybridnoc_sweep run --spec FILE --out DIR [options]\n"
      "options:\n"
      "  --workers N        worker threads (default 4)\n"
      "  --max-attempts N   attempts before quarantine (default 3)\n"
      "  --timeout-ms T     per-point wall clock; 0 = none (default)\n"
      "  --backoff-base-ms B --backoff-cap-ms C   retry backoff envelope\n"
      "  --fresh            ignore + truncate an existing journal\n"
      "  --fault-seed S --fault-throw P --fault-hang P --fault-torn P\n"
      "                     deterministic fault-injection harness (tests)\n"
      "known spec keys: %s\n",
      hybridnoc::sweep::known_spec_keys().c_str());
}

/// Parses the command line and runs it; every usage, spec or environment
/// error is thrown and reported once, by main.
int run(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode != "expand" && mode != "run") {
    usage();
    throw InputError("unknown mode '" + mode + "'");
  }
  const Flags flags(argc, argv, 2,
                    mode == "expand"
                        ? std::vector<Flags::Decl>{{"spec"}}
                        : std::vector<Flags::Decl>{
                              {"spec"}, {"out"}, {"workers"}, {"max-attempts"},
                              {"timeout-ms"}, {"backoff-base-ms"},
                              {"backoff-cap-ms"}, {"fresh", 0}, {"fault-seed"},
                              {"fault-throw"}, {"fault-hang"}, {"fault-torn"}});
  SweepOptions opt;
  opt.out_dir = flags.str("out", "");
  opt.workers = flags.num("workers", opt.workers, 1, SweepOptions::kMaxWorkers);
  opt.max_attempts = flags.num("max-attempts", opt.max_attempts, 1);
  opt.timeout_ms = flags.num("timeout-ms", opt.timeout_ms);
  opt.backoff_base_ms = flags.num("backoff-base-ms", opt.backoff_base_ms);
  opt.backoff_cap_ms = flags.num("backoff-cap-ms", opt.backoff_cap_ms);
  opt.resume = !flags.has("fresh");
  auto& f = opt.faults;
  f.seed = flags.num("fault-seed", f.seed);
  f.throw_prob = flags.num("fault-throw", f.throw_prob, 0.0, 1.0);
  f.hang_prob = flags.num("fault-hang", f.hang_prob, 0.0, 1.0);
  f.torn_write_prob = flags.num("fault-torn", f.torn_write_prob, 0.0, 1.0);
  f.enabled = flags.has("fault-seed") || flags.has("fault-throw") ||
              flags.has("fault-hang") || flags.has("fault-torn");
  const std::string spec_path = flags.str("spec", "");
  if (spec_path.empty()) {
    usage();
    throw InputError("--spec is required");
  }
  check_input(mode == "expand" || !opt.out_dir.empty(), "run needs --out DIR");

  SweepSpec spec;
  SpecError serr;
  if (!hybridnoc::sweep::load_sweep_spec(spec_path, &spec, &serr)) {
    throw InputError(serr.to_string());
  }

  if (mode == "expand") {
    std::printf("# sweep %s: %zu points\n", spec.name.c_str(),
                spec.points.size());
    for (const auto& pt : spec.points) {
      std::printf("%016llx  %s\n",
                  static_cast<unsigned long long>(pt.hash),
                  pt.label.c_str());
    }
    return 0;
  }
  const SweepReport report = hybridnoc::sweep::run_sweep(spec, opt);
  std::printf("%s\n", report.degradation.to_string().c_str());
  std::printf("aggregate: %s\n", report.aggregate_path.c_str());
  return report.degradation.complete() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {  // InputError, or the environment's
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
