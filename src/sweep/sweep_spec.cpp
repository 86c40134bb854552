#include "sweep/sweep_spec.hpp"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/fileio.hpp"
#include "common/input.hpp"
#include "fastmodel/fast_model.hpp"
#include "sweep/canonical.hpp"

namespace hybridnoc::sweep {

namespace {

constexpr std::size_t kMaxPoints = 100000;

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_i64(const std::string& s, long long* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_bool(const std::string& s, bool* out) {
  if (s == "true" || s == "1" || s == "on") {
    *out = true;
    return true;
  }
  if (s == "false" || s == "0" || s == "off") {
    *out = false;
    return true;
  }
  return false;
}

struct Point {
  NocConfig cfg;
  RunParams params;
};

/// Applies one "key = value"; returns false with *msg on a bad value.
using Setter = bool (*)(Point&, const std::string&, std::string* msg);

// Resets cfg wholesale, so `set preset` belongs before field overrides (the
// file-order application rule in the header makes this predictable).
bool set_preset(Point& p, const std::string& v, std::string* msg) {
  if (v == "packet_vc4") {
    p.cfg = NocConfig::packet_vc4();
  } else if (v == "hybrid_tdm_vc4") {
    p.cfg = NocConfig::hybrid_tdm_vc4();
  } else if (v == "hybrid_tdm_vct") {
    p.cfg = NocConfig::hybrid_tdm_vct();
  } else if (v == "hybrid_sdm_vc4") {
    p.cfg = NocConfig::hybrid_sdm_vc4();
  } else if (v == "hybrid_tdm_hop_vc4") {
    p.cfg = NocConfig::hybrid_tdm_hop_vc4();
  } else if (v == "hybrid_tdm_hop_vct") {
    p.cfg = NocConfig::hybrid_tdm_hop_vct();
  } else {
    *msg = "unknown preset '" + v +
           "' (packet_vc4, hybrid_tdm_vc4, hybrid_tdm_vct, hybrid_sdm_vc4, "
           "hybrid_tdm_hop_vc4, hybrid_tdm_hop_vct)";
    return false;
  }
  return true;
}

bool set_pattern(Point& p, const std::string& v, std::string* msg) {
  if (v == "uniform") {
    p.params.pattern = TrafficPattern::UniformRandom;
  } else if (v == "tornado") {
    p.params.pattern = TrafficPattern::Tornado;
  } else if (v == "transpose") {
    p.params.pattern = TrafficPattern::Transpose;
  } else if (v == "bitcomp") {
    p.params.pattern = TrafficPattern::BitComplement;
  } else if (v == "shuffle") {
    p.params.pattern = TrafficPattern::Shuffle;
  } else if (v == "hotspot") {
    p.params.pattern = TrafficPattern::Hotspot;
  } else {
    *msg = "unknown pattern '" + v +
           "' (uniform, tornado, transpose, bitcomp, shuffle, hotspot)";
    return false;
  }
  return true;
}

bool set_fidelity(Point& p, const std::string& v, std::string* msg) {
  if (v == "cycle") {
    p.params.fidelity = Fidelity::Cycle;
  } else if (v == "fast") {
    p.params.fidelity = Fidelity::Fast;
  } else {
    *msg = "unknown fidelity '" + v + "' (cycle, fast)";
    return false;
  }
  return true;
}

#define HN_INT_SETTER(field)                                          \
  [](Point& p, const std::string& v, std::string* msg) {              \
    long long x;                                                      \
    if (!parse_i64(v, &x)) {                                          \
      *msg = "expected an integer, got '" + v + "'";                  \
      return false;                                                   \
    }                                                                 \
    p.field = static_cast<decltype(p.field)>(x);                      \
    return true;                                                      \
  }

#define HN_F64_SETTER(field)                                          \
  [](Point& p, const std::string& v, std::string* msg) {              \
    double x;                                                         \
    if (!parse_double(v, &x)) {                                       \
      *msg = "expected a number, got '" + v + "'";                    \
      return false;                                                   \
    }                                                                 \
    p.field = x;                                                      \
    return true;                                                      \
  }

#define HN_BOOL_SETTER(field)                                         \
  [](Point& p, const std::string& v, std::string* msg) {              \
    bool x;                                                           \
    if (!parse_bool(v, &x)) {                                         \
      *msg = "expected true/false, got '" + v + "'";                  \
      return false;                                                   \
    }                                                                 \
    p.field = x;                                                      \
    return true;                                                      \
  }

const std::map<std::string, Setter>& setters() {
  static const std::map<std::string, Setter> s = {
      {"preset", set_preset},
      {"pattern", set_pattern},
      {"fidelity", set_fidelity},
      // topology / router
      {"k", HN_INT_SETTER(cfg.k)},
      {"num_vcs", HN_INT_SETTER(cfg.num_vcs)},
      {"vc_buffer_depth", HN_INT_SETTER(cfg.vc_buffer_depth)},
      {"slot_table_size", HN_INT_SETTER(cfg.slot_table_size)},
      {"dlt_entries", HN_INT_SETTER(cfg.dlt_entries)},
      {"sdm_planes", HN_INT_SETTER(cfg.sdm_planes)},
      {"tick_threads", HN_INT_SETTER(cfg.tick_threads)},
      // policy
      {"dynamic_slot_sizing", HN_BOOL_SETTER(cfg.dynamic_slot_sizing)},
      {"initial_active_slots", HN_INT_SETTER(cfg.initial_active_slots)},
      {"hitchhiker_sharing", HN_BOOL_SETTER(cfg.hitchhiker_sharing)},
      {"vicinity_sharing", HN_BOOL_SETTER(cfg.vicinity_sharing)},
      {"vc_power_gating", HN_BOOL_SETTER(cfg.vc_power_gating)},
      {"time_slot_stealing", HN_BOOL_SETTER(cfg.time_slot_stealing)},
      {"max_windows_per_pair", HN_INT_SETTER(cfg.max_windows_per_pair)},
      {"path_freq_threshold", HN_INT_SETTER(cfg.path_freq_threshold)},
      {"cs_latency_advantage", HN_F64_SETTER(cfg.cs_latency_advantage)},
      {"reservation_threshold", HN_F64_SETTER(cfg.reservation_threshold)},
      // faults
      {"link_ber", HN_F64_SETTER(cfg.link_ber)},
      {"fault_seed", HN_INT_SETTER(cfg.fault_seed)},
      {"e2e_recovery", HN_BOOL_SETTER(cfg.e2e_recovery)},
      {"cfg_seed", HN_INT_SETTER(cfg.seed)},
      // run params
      {"rate", HN_F64_SETTER(params.injection_rate)},
      {"seed", HN_INT_SETTER(params.seed)},
      {"warmup_packets", HN_INT_SETTER(params.warmup_packets)},
      {"warmup_min_cycles", HN_INT_SETTER(params.warmup_min_cycles)},
      {"measure_packets", HN_INT_SETTER(params.measure_packets)},
      {"max_cycles", HN_INT_SETTER(params.max_cycles)},
      {"latency_cap", HN_F64_SETTER(params.latency_cap)},
  };
  return s;
}

#undef HN_INT_SETTER
#undef HN_F64_SETTER
#undef HN_BOOL_SETTER

struct Op {
  int line = 0;
  std::string key;
  std::vector<std::string> values;  ///< 1 for `set`, >= 1 for `sweep`
  bool is_axis = false;
};

bool fail(SpecError* err, int line, std::string msg) {
  if (err) {
    err->line = line;
    err->message = std::move(msg);
  }
  return false;
}

}  // namespace

std::string SpecError::to_string() const {
  std::ostringstream os;
  os << "sweep spec error";
  if (line > 0) os << " (line " << line << ")";
  os << ": " << message;
  return os.str();
}

std::string known_spec_keys() {
  std::string out;
  for (const auto& [key, fn] : setters()) {
    (void)fn;
    if (!out.empty()) out += ", ";
    out += key;
  }
  return out;
}

bool parse_sweep_spec(const std::string& text, SweepSpec* out,
                      SpecError* err) {
  SweepSpec spec;
  spec.spec_digest = fnv1a64(text);

  std::vector<Op> ops;
  std::istringstream in(text);
  LineReader reader(in, "spec");
  std::string line;
  while (reader.next(&line)) {
    const int lineno = reader.line();
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(err, lineno, "expected '<directive> <key> = <value>'");
    }
    std::string lhs = trim(line.substr(0, eq));
    const std::string rhs = trim(line.substr(eq + 1));

    if (lhs == "name") {
      if (rhs.empty()) return fail(err, lineno, "empty sweep name");
      spec.name = rhs;
      continue;
    }

    Op op;
    op.line = lineno;
    if (lhs.rfind("set ", 0) == 0) {
      op.key = trim(lhs.substr(4));
      op.is_axis = false;
      op.values.push_back(rhs);
    } else if (lhs.rfind("sweep ", 0) == 0) {
      op.key = trim(lhs.substr(6));
      op.is_axis = true;
      std::istringstream vs(rhs);
      std::string v;
      while (std::getline(vs, v, ',')) {
        v = trim(v);
        if (!v.empty()) op.values.push_back(v);
      }
      if (op.values.empty()) {
        return fail(err, lineno, "axis '" + op.key + "' has no values");
      }
    } else {
      return fail(err, lineno,
                  "unknown directive '" + lhs +
                      "' (use 'name', 'set <key>' or 'sweep <key>')");
    }
    if (setters().find(op.key) == setters().end()) {
      return fail(err, lineno,
                  "unknown key '" + op.key + "' (known: " +
                      known_spec_keys() + ")");
    }
    if (op.is_axis) spec.axis_keys.push_back(op.key);
    ops.push_back(std::move(op));
  }

  // Cartesian size, overflow-safely.
  std::size_t n_points = 1;
  for (const Op& op : ops) {
    if (!op.is_axis) continue;
    if (n_points > kMaxPoints / op.values.size()) {
      return fail(err, op.line, "sweep expands past the " +
                                    std::to_string(kMaxPoints) +
                                    "-point limit");
    }
    n_points *= op.values.size();
  }
  if (ops.empty()) return fail(err, 0, "spec defines no assignments");

  // Expand: odometer over the axes, last axis fastest.
  std::vector<const Op*> axes;
  for (const Op& op : ops) {
    if (op.is_axis) axes.push_back(&op);
  }
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t pt = 0; pt < n_points; ++pt) {
    Point p;
    std::string label;
    std::size_t axis_i = 0;
    for (const Op& op : ops) {
      const std::string& value =
          op.is_axis ? op.values[idx[axis_i]] : op.values[0];
      if (op.is_axis) {
        if (!label.empty()) label += ",";
        label += op.key + "=" + value;
        ++axis_i;
      }
      std::string msg;
      if (!setters().at(op.key)(p, value, &msg)) {
        return fail(err, op.line, op.key + ": " + msg);
      }
    }
    if (label.empty()) label = "point" + std::to_string(pt);

    // The config's own constraints, then what the run asks of it.
    try {
      p.cfg.validate();
      const double rate = p.params.injection_rate;
      check_input(rate >= 0.0 && rate <= p.cfg.ps_data_flits,
                  "rate must lie in [0, ps_data_flits] flits/node/cycle");
      std::string why;
      if (p.params.fidelity == Fidelity::Fast &&
          !fast_model_supports(p.cfg, &why)) {
        throw InputError("fidelity fast: " + why);
      }
    } catch (const InputError& e) {
      return fail(err, 0, "point '" + label + "' is invalid: " + e.what());
    }

    SweepPoint sp;
    sp.cfg = p.cfg;
    sp.params = p.params;
    sp.label = std::move(label);
    sp.hash = config_hash(sp.cfg, sp.params);
    spec.points.push_back(std::move(sp));

    // Advance the odometer (last axis fastest).
    for (std::size_t i = axes.size(); i-- > 0;) {
      if (++idx[i] < axes[i]->values.size()) break;
      idx[i] = 0;
    }
  }

  *out = std::move(spec);
  return true;
}

bool load_sweep_spec(const std::string& path, SweepSpec* out,
                     SpecError* err) {
  std::string text, ferr;
  if (!read_file(path, &text, &ferr)) {
    return fail(err, 0, "cannot read spec '" + path + "': " + ferr);
  }
  return parse_sweep_spec(text, out, err);
}

}  // namespace hybridnoc::sweep
