// Rejecting outside input: traces, NN descriptors, fault scenarios, sweep
// specs and CLI flag values.
//
// A value from outside the program is checked where it is first read, and
// a bad one throws InputError; each front end catches it in one place and
// exits 2 with an `error:` line. HN_CHECK (common/assert.hpp) guards the
// simulator's own invariants and always aborts.
#pragma once

#include <fstream>
#include <istream>
#include <stdexcept>
#include <string>
#include <utility>

namespace hybridnoc {

struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void check_input(bool ok, const char* msg) {
  if (!ok) throw InputError(msg);
}

/// Opens `path` for reading; throws InputError when it cannot.
inline std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InputError("cannot open '" + path + "'");
  return in;
}

/// Reads a line-oriented format: cuts `#` comments, skips lines left blank
/// and counts lines, so each error names `<source>:<line>: <message>`.
class LineReader {
 public:
  /// `source` names the input in errors: a file path or a label.
  LineReader(std::istream& in, std::string source)
      : in_(in), source_(std::move(source)) {}

  /// Next line with content, its comment cut off; false at the end.
  bool next(std::string* line) {
    while (std::getline(in_, *line)) {
      ++line_;
      if (const auto hash = line->find('#'); hash != std::string::npos) {
        line->erase(hash);
      }
      if (line->find_first_not_of(" \t\r") != std::string::npos) return true;
    }
    return false;
  }
  int line() const { return line_; }  ///< 1-based, of the last next()

  /// Throws InputError("<source>:<line>: <msg>").
  [[noreturn]] void fail(const std::string& msg) const {
    throw InputError(source_ + ":" + std::to_string(line_) + ": " + msg);
  }
  void check(bool ok, const char* msg) const {
    if (!ok) fail(msg);
  }

 private:
  std::istream& in_;
  std::string source_;
  int line_ = 0;
};

}  // namespace hybridnoc
