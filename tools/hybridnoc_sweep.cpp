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
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/input.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"

namespace {

using hybridnoc::check_input;
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

/// A whole decimal number; a sign, trailing text or overflow is rejected
/// (strtoull would wrap "-1" and saturate at ULLONG_MAX).
bool parse_u64_arg(const char* s, std::uint64_t* out) {
  if (std::strchr(s, '-') != nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool parse_double_arg(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

/// Parses the command line and runs it; every usage, spec or environment
/// error is thrown and reported once, by main.
int run(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string mode = argv[1];
  std::string spec_path, out_dir;
  SweepOptions opt;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw InputError(a + " needs a value");
      return argv[++i];
    };
    const auto u64_value = [&](std::uint64_t* out) {
      if (!parse_u64_arg(value(), out)) throw InputError("bad " + a);
    };
    const auto int_value = [&](int* out) {
      std::uint64_t v = 0;
      u64_value(&v);
      if (v > INT_MAX) throw InputError("bad " + a);
      *out = static_cast<int>(v);
    };
    const auto prob_value = [&](double* out) {
      opt.faults.enabled = true;
      if (!parse_double_arg(value(), out)) throw InputError("bad " + a);
    };
    if (a == "--spec") {
      spec_path = value();
    } else if (a == "--out") {
      out_dir = value();
    } else if (a == "--workers") {
      int_value(&opt.workers);
    } else if (a == "--max-attempts") {
      int_value(&opt.max_attempts);
    } else if (a == "--timeout-ms") {
      u64_value(&opt.timeout_ms);
    } else if (a == "--backoff-base-ms") {
      u64_value(&opt.backoff_base_ms);
    } else if (a == "--backoff-cap-ms") {
      u64_value(&opt.backoff_cap_ms);
    } else if (a == "--fresh") {
      opt.resume = false;
    } else if (a == "--fault-seed") {
      opt.faults.enabled = true;
      u64_value(&opt.faults.seed);
    } else if (a == "--fault-throw") {
      prob_value(&opt.faults.throw_prob);
    } else if (a == "--fault-hang") {
      prob_value(&opt.faults.hang_prob);
    } else if (a == "--fault-torn") {
      prob_value(&opt.faults.torn_write_prob);
    } else {
      usage();
      throw InputError("unknown option '" + a + "'");
    }
  }
  if (spec_path.empty()) {
    usage();
    throw InputError("--spec is required");
  }

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
  if (mode != "run") {
    usage();
    throw InputError("unknown mode '" + mode + "'");
  }
  check_input(!out_dir.empty(), "run needs --out DIR");
  check_input(opt.workers >= 1 && opt.max_attempts >= 1,
              "--workers and --max-attempts must be >= 1");
  opt.out_dir = out_dir;

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
