#include "sweep/sweep_spec.hpp"

#include <map>
#include <sstream>
#include <type_traits>

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

struct Point {
  NocConfig cfg;
  RunParams params;
};

/// Applies one "key = value"; a bad value throws InputError.
using Setter = void (*)(Point&, const std::string&);

// Resets cfg wholesale, so `set preset` belongs before field overrides (the
// file-order application rule in the header makes this predictable).
void set_preset(Point& p, const std::string& v) {
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
    throw InputError("unknown preset '" + v +
                     "' (packet_vc4, hybrid_tdm_vc4, hybrid_tdm_vct, "
                     "hybrid_sdm_vc4, hybrid_tdm_hop_vc4, hybrid_tdm_hop_vct)");
  }
}

void set_pattern(Point& p, const std::string& v) {
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
    throw InputError("unknown pattern '" + v +
                     "' (uniform, tornado, transpose, bitcomp, shuffle, hotspot)");
  }
}

void set_fidelity(Point& p, const std::string& v) {
  if (v == "cycle") {
    p.params.fidelity = Fidelity::Cycle;
  } else if (v == "fast") {
    p.params.fidelity = Fidelity::Fast;
  } else {
    throw InputError("unknown fidelity '" + v + "' (cycle, fast)");
  }
}

/// `v` read as the field's own type: a number in that type's range, or
/// for a bool one of true/false, on/off, 1/0.
template <typename T>
void assign(T& field, const std::string& v) {
  if constexpr (std::is_same_v<T, bool>) {
    if (v == "true" || v == "1" || v == "on") {
      field = true;
    } else if (v == "false" || v == "0" || v == "off") {
      field = false;
    } else {
      throw InputError("expected true/false, got '" + v + "'");
    }
  } else {
    field = parse_number<T>(v);
  }
}

template <auto Field>
void set_cfg(Point& p, const std::string& v) {
  assign(p.cfg.*Field, v);
}

template <auto Field>
void set_run(Point& p, const std::string& v) {
  assign(p.params.*Field, v);
}

const std::map<std::string, Setter>& setters() {
  static const std::map<std::string, Setter> s = {
      {"preset", set_preset},
      {"pattern", set_pattern},
      {"fidelity", set_fidelity},
      // topology / router
      {"k", set_cfg<&NocConfig::k>},
      {"num_vcs", set_cfg<&NocConfig::num_vcs>},
      {"vc_buffer_depth", set_cfg<&NocConfig::vc_buffer_depth>},
      {"slot_table_size", set_cfg<&NocConfig::slot_table_size>},
      {"dlt_entries", set_cfg<&NocConfig::dlt_entries>},
      {"sdm_planes", set_cfg<&NocConfig::sdm_planes>},
      {"tick_threads", set_cfg<&NocConfig::tick_threads>},
      // policy
      {"dynamic_slot_sizing", set_cfg<&NocConfig::dynamic_slot_sizing>},
      {"initial_active_slots", set_cfg<&NocConfig::initial_active_slots>},
      {"hitchhiker_sharing", set_cfg<&NocConfig::hitchhiker_sharing>},
      {"vicinity_sharing", set_cfg<&NocConfig::vicinity_sharing>},
      {"vc_power_gating", set_cfg<&NocConfig::vc_power_gating>},
      {"time_slot_stealing", set_cfg<&NocConfig::time_slot_stealing>},
      {"max_windows_per_pair", set_cfg<&NocConfig::max_windows_per_pair>},
      {"path_freq_threshold", set_cfg<&NocConfig::path_freq_threshold>},
      {"cs_latency_advantage", set_cfg<&NocConfig::cs_latency_advantage>},
      {"reservation_threshold", set_cfg<&NocConfig::reservation_threshold>},
      // faults
      {"link_ber", set_cfg<&NocConfig::link_ber>},
      {"fault_seed", set_cfg<&NocConfig::fault_seed>},
      {"e2e_recovery", set_cfg<&NocConfig::e2e_recovery>},
      {"cfg_seed", set_cfg<&NocConfig::seed>},
      // run params
      {"rate", set_run<&RunParams::injection_rate>},
      {"seed", set_run<&RunParams::seed>},
      {"warmup_packets", set_run<&RunParams::warmup_packets>},
      {"warmup_min_cycles", set_run<&RunParams::warmup_min_cycles>},
      {"measure_packets", set_run<&RunParams::measure_packets>},
      {"max_cycles", set_run<&RunParams::max_cycles>},
      {"latency_cap", set_run<&RunParams::latency_cap>},
  };
  return s;
}

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
      try {
        setters().at(op.key)(p, value);
      } catch (const InputError& e) {
        return fail(err, op.line, op.key + ": " + e.what());
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
