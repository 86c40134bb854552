#include "traffic/trace.hpp"

#include <istream>
#include <ostream>

#include "common/assert.hpp"
#include "common/input.hpp"

namespace hybridnoc {

std::vector<TraceEntry> load_trace(std::istream& in, const std::string& source) {
  std::vector<TraceEntry> out;
  LineReader reader(in, source);
  std::string line;
  while (reader.next(&line)) {
    LineFields f(reader, line, "malformed trace line");
    const TraceEntry e{f.num<Cycle>(), f.num<NodeId>(), f.num<NodeId>(),
                       f.num<int>()};
    f.end();
    reader.check(e.flits >= 1 && e.src >= 0 && e.dst >= 0,
                 "invalid trace entry");
    reader.check(out.empty() || out.back().cycle <= e.cycle,
                 "trace entries out of cycle order");
    out.push_back(e);
  }
  return out;
}

void check_trace(const std::vector<TraceEntry>& entries, int num_nodes) {
  check_input(!entries.empty(), "empty trace");
  for (size_t i = 0; i < entries.size(); ++i) {
    const TraceEntry& e = entries[i];
    check_input(e.src >= 0 && e.src < num_nodes && e.dst >= 0 &&
                    e.dst < num_nodes,
                "trace entry outside the mesh");
    check_input(e.src != e.dst, "self-directed trace entry");
    check_input(e.flits >= 1 && e.flits <= kMaxTraceFlits,
                "trace entry flits outside 1..65535");
    check_input(i == 0 || entries[i - 1].cycle <= e.cycle,
                "trace entries out of cycle order");
  }
}

void save_trace(std::ostream& out, const std::vector<TraceEntry>& entries) {
  out << "# hybridnoc trace: cycle src dst flits\n";
  for (const auto& e : entries) {
    out << e.cycle << ' ' << e.src << ' ' << e.dst << ' ' << e.flits << '\n';
  }
}

TraceTraffic::TraceTraffic(std::vector<TraceEntry> entries, bool loop)
    : entries_(std::move(entries)), loop_(loop) {
  for (size_t i = 1; i < entries_.size(); ++i) {
    HN_CHECK_MSG(entries_[i - 1].cycle <= entries_[i].cycle,
                 "trace entries must be sorted by cycle");
  }
  span_ = entries_.empty() ? 1 : entries_.back().cycle + 1;
}

}  // namespace hybridnoc
