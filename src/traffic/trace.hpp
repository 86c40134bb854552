// Trace-driven traffic: record and replay exact injection schedules.
//
// Format: plain text, one injection per line — `cycle src dst flits` —
// with `#` comments and blank lines ignored; entries must be sorted by
// cycle. Replaying a trace against different router architectures gives an
// apples-to-apples comparison on identical offered traffic, and traces
// captured from the heterogeneous system (or converted from external tools)
// can be fed to any configuration.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"

namespace hybridnoc {

struct TraceEntry {
  Cycle cycle = 0;
  NodeId src = 0;
  NodeId dst = 0;
  int flits = 5;
  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// Largest trace message in flits (the fast model stores lengths in 16 bits).
inline constexpr int kMaxTraceFlits = 65535;

/// Parse a trace stream. Throws InputError naming `source` and the line on
/// a malformed line or an entry out of cycle order.
std::vector<TraceEntry> load_trace(std::istream& in,
                                   const std::string& source = "trace");

/// What both fidelities require of a trace on `num_nodes` nodes (throws
/// InputError): non-empty, sorted, in-mesh, not self-directed,
/// 1..kMaxTraceFlits flits.
void check_trace(const std::vector<TraceEntry>& entries, int num_nodes);
void save_trace(std::ostream& out, const std::vector<TraceEntry>& entries);

/// Replays a trace, optionally looping it forever (the trace's span is
/// re-applied shifted each pass, so a short capture models steady state).
class TraceTraffic {
 public:
  explicit TraceTraffic(std::vector<TraceEntry> entries, bool loop = false);

  /// Emit every injection scheduled for `now`: calls emit(src, dst, flits).
  template <typename EmitFn>
  void generate(Cycle now, EmitFn emit) {
    while (pos_ < entries_.size()) {
      const TraceEntry& e = entries_[pos_];
      const Cycle at = e.cycle + offset_;
      if (at > now) return;
      emit(e.src, e.dst, e.flits);
      ++pos_;
      if (pos_ == entries_.size() && loop_ && !entries_.empty()) {
        pos_ = 0;
        offset_ += span_;
      }
    }
  }

  bool exhausted() const { return pos_ >= entries_.size(); }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<TraceEntry> entries_;
  bool loop_;
  size_t pos_ = 0;
  Cycle offset_ = 0;
  Cycle span_ = 0;  ///< loop period: last cycle + 1
};

}  // namespace hybridnoc
