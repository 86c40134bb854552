// Rejecting outside input: traces, NN descriptors, fault scenarios, sweep
// specs and CLI flag values.
//
// A value from outside the program is checked where it is first read, and
// a bad one throws InputError; each front end catches it in one place and
// exits 2 with an `error:` line. Every number read from outside text goes
// through parse_number. HN_CHECK (common/assert.hpp) guards the
// simulator's own invariants and always aborts.
#pragma once

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hybridnoc {

struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What separates the fields of a line; a line of nothing else is blank.
inline constexpr const char* kBlanks = " \t\r\n\v\f";

inline void check_input(bool ok, const char* msg) {
  if (!ok) throw InputError(msg);
}

/// The number that the whole of `token` spells, as a T in [lo, hi]. A sign
/// on an unsigned T, a leading `+` or space, trailing text, a value that T
/// cannot hold (infinity included, unless `hi` admits it), NaN or a value
/// outside [lo, hi] throws InputError.
template <typename T>
T parse_number(std::string_view token, T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec == std::errc() && ptr == end && v >= lo && v <= hi) return v;
  std::ostringstream msg;  // NaN fails the range test above
  msg << std::setprecision(16) << "expected "
      << (std::is_integral_v<T> ? "a whole number" : "a number");
  if (std::is_integral_v<T> || lo != std::numeric_limits<T>::lowest() ||
      hi != std::numeric_limits<T>::max()) {
    msg << " in [" << +lo << ", " << +hi << "]";
  }
  msg << ", got '" << token << "'";
  throw InputError(msg.str());
}

/// Command-line flags read against a declared table. Each flag takes a
/// fixed number of values (0 for a switch) and may repeat: a getter reads
/// the last use, all() every use. An undeclared flag, a stray positional
/// or a missing value throws InputError from the constructor, so a bad
/// command line fails before any work starts. A bad number reads
/// "bad --<flag>: <why>".
class Flags {
 public:
  struct Decl {
    const char* name;  ///< without the leading `--`
    int arity = 1;
  };
  /// One use of a flag on the command line, with its values.
  struct Use {
    std::string name;
    std::vector<std::string> values;
    template <typename T>
    T num(std::size_t i, T lo = std::numeric_limits<T>::lowest(),
          T hi = std::numeric_limits<T>::max()) const {
      try {
        return parse_number<T>(values[i], lo, hi);
      } catch (const InputError& e) {
        throw InputError("bad --" + name + ": " + e.what());
      }
    }
  };

  /// Reads argv[first..argc) against `known`.
  Flags(int argc, char** argv, int first, const std::vector<Decl>& known);

  bool has(std::string_view name) const { return last(name) != nullptr; }
  std::string str(std::string_view name, std::string dflt) const {
    const Use* u = last(name);
    return u ? u->values[0] : dflt;
  }
  template <typename T>
  T num(std::string_view name, T dflt, T lo = std::numeric_limits<T>::lowest(),
        T hi = std::numeric_limits<T>::max()) const {
    const Use* u = last(name);
    return u ? u->num<T>(0, lo, hi) : dflt;
  }
  /// Every use of --name, in command-line order.
  std::vector<const Use*> all(std::string_view name) const;

 private:
  const Use* last(std::string_view name) const;
  std::vector<Use> uses_;
};

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
      if (line->find_first_not_of(kBlanks) != std::string::npos) return true;
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

/// The whitespace-separated fields of one line, read left to right. A
/// missing, malformed or left-over field fails the line through `reader`
/// as `<source>:<line>: <what>[: <why>]`.
class LineFields {
 public:
  LineFields(const LineReader& reader, std::string_view line, std::string what)
      : reader_(reader), line_(line), what_(std::move(what)) {}

  /// The next field as text.
  std::string_view word() {
    const std::size_t start = line_.find_first_not_of(kBlanks, pos_);
    reader_.check(start != line_.npos, what_.c_str());
    pos_ = std::min(line_.find_first_of(kBlanks, start), line_.size());
    return line_.substr(start, pos_ - start);
  }
  /// The next field as a number in [lo, hi] (see parse_number).
  template <typename T>
  T num(T lo = std::numeric_limits<T>::lowest(),
        T hi = std::numeric_limits<T>::max()) {
    const std::string_view w = word();
    try {
      return parse_number<T>(w, lo, hi);
    } catch (const InputError& e) {
      reader_.fail(what_ + ": " + e.what());
    }
  }
  /// The next field into `field`, read as its own type; a bool is 0 or 1.
  template <typename T>
  void read(T& field) {
    if constexpr (std::is_same_v<T, bool>) {
      field = num<int>(0, 1) == 1;
    } else {
      field = num<T>();
    }
  }
  /// Fails unless every field has been read.
  void end() const {
    reader_.check(line_.find_first_not_of(kBlanks, pos_) == line_.npos,
                  what_.c_str());
  }

 private:
  const LineReader& reader_;
  std::string_view line_;
  std::string what_;
  std::size_t pos_ = 0;
};

}  // namespace hybridnoc
