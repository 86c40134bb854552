// Binary state archive for network checkpoint/restore.
//
// A StateWriter accumulates tagged little-endian fields; seal() prepends a
// versioned header and appends an FNV-1a digest over the payload. A
// StateReader verifies the header and digest up front — a truncated,
// bit-flipped or wrong-version archive is rejected *before* any state is
// parsed — and then replays the fields in order. Section tags are written
// into the stream and re-checked on read, so a field-order mismatch fails
// loudly at the exact divergent section instead of silently restoring
// garbage.
//
// Field interface. Both classes offer the same calls, so an archived record
// writes its layout once, as one template both walk:
//
//   template <typename Ar, typename Self>  // Self: const T (save) or T
//   static void layout(Ar& ar, Self& self);
//
// The writer writes each field; the reader fills it in and runs the
// restore-side check next to the field it guards:
//   ar.fields(a, b, ...)       one field each. A scalar's width is its type's
//                              size: bool and std::uint8_t (and Port) 1 byte,
//                              int 4, std::uint64_t and double 8. A string is
//                              a u64 length plus its bytes, a std::array its
//                              elements, a std::atomic its value; a type with
//                              save_state/restore_state nests as a record.
//   ar.expect(v, what)         the stored value must equal v (capacities and
//                              config guards)
//   ar.ranged(v, lo, hi, what) v must lie in [lo, hi]
//   ar.check(ok, what)         a condition on fields already walked
//   ar.bit(mask, i)            bit i of an integer mask, as one bool
//   ar.set(s), ar.map(m, fn)   u64 count, then the entries in key order (hash
//                              containers are sorted first, so the bytes never
//                              depend on table layout); the reader clears and
//                              refills. fn(key, value) walks one value.
// A failed check throws StateError(what). `Ar::kReading` tells the walks
// apart for the rare step only one side takes.
//
// All read-side failures throw StateError (never HN_CHECK): callers treat a
// bad archive as "recompute from scratch", which must be a death-free path.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace hybridnoc {

struct StateError : std::runtime_error {
  explicit StateError(const std::string& what) : std::runtime_error(what) {}
};

namespace state_detail {
template <typename T>
inline constexpr bool kIsArray = false;
template <typename T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;
template <typename T>
inline constexpr bool kIsAtomic = false;
template <typename T>
inline constexpr bool kIsAtomic<std::atomic<T>> = true;
template <typename T>
inline constexpr bool kIsScalar =
    std::is_integral_v<T> || std::is_enum_v<T> || std::is_same_v<T, double>;
}  // namespace state_detail

class StateWriter {
 public:
  static constexpr bool kReading = false;

  /// Begin a named section; the tag is embedded and verified on read.
  void section(const char* name);

  void u8(std::uint8_t v) { field(v); }
  void b(bool v) { field(v); }
  void u32(std::uint32_t v) { field(v); }
  void i32(std::int32_t v) { field(v); }
  void u64(std::uint64_t v) { field(v); }
  /// Bit-exact double round-trip (no decimal formatting involved).
  void f64(double v) { field(v); }
  void str(const std::string& s) { field(s); }

  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      field(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (state_detail::kIsScalar<T>) {
      const auto bits = static_cast<std::uint64_t>(v);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        payload_.push_back(static_cast<char>(bits >> (8 * i)));
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      u64(v.size());
      payload_ += v;
    } else if constexpr (state_detail::kIsArray<T>) {
      for (const auto& x : v) field(x);
    } else if constexpr (state_detail::kIsAtomic<T>) {
      field(v.load(std::memory_order_relaxed));
    } else {
      v.save_state(*this);
    }
  }
  template <typename... T>
  void fields(const T&... v) { (field(v), ...); }
  template <typename T>
  void expect(const T& v, const char*) { field(v); }
  template <typename T>
  void ranged(const T& v, std::type_identity_t<T>, std::type_identity_t<T>,
              const char*) {
    field(v);
  }
  void check(bool, const char*) {}
  template <typename M>
  void bit(M mask, unsigned i) { b(((mask >> i) & 1u) != 0); }

  template <typename S>
  void set(const S& s) {
    std::vector<typename S::key_type> keys(s.begin(), s.end());
    std::sort(keys.begin(), keys.end());
    u64(keys.size());
    for (const auto& k : keys) field(k);
  }
  template <typename M, typename F>
  void map(const M& m, F&& fn) {
    std::vector<const typename M::value_type*> entries;
    for (const auto& e : m) entries.push_back(&e);
    std::sort(entries.begin(), entries.end(),
              [](const auto* x, const auto* y) { return x->first < y->first; });
    u64(entries.size());
    for (const auto* e : entries) {
      field(e->first);
      fn(e->first, e->second);
    }
  }

  /// Finish: returns magic + version + payload-size + payload + digest.
  std::string seal() const;

 private:
  std::string payload_;
};

class StateReader {
 public:
  static constexpr bool kReading = true;

  /// Verifies magic, version and digest; throws StateError on any mismatch.
  explicit StateReader(const std::string& sealed);

  void section(const char* name);

  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = take_le(1) != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(take_le(8));
    } else if constexpr (state_detail::kIsScalar<T>) {
      v = static_cast<T>(take_le(sizeof(T)));
    } else if constexpr (std::is_same_v<T, std::string>) {
      const auto n = get<std::uint64_t>();
      check(n <= payload_.size() - pos_, "string length overruns archive");
      v.assign(payload_, pos_, static_cast<std::size_t>(n));
      pos_ += static_cast<std::size_t>(n);
    } else if constexpr (state_detail::kIsArray<T>) {
      for (auto& x : v) field(x);
    } else if constexpr (state_detail::kIsAtomic<T>) {
      v.store(get<typename T::value_type>(), std::memory_order_relaxed);
    } else {
      v.restore_state(*this);
    }
  }
  template <typename... T>
  void fields(T&... v) { (field(v), ...); }
  template <typename T>
  void expect(const T& v, const char* what) { check(get<T>() == v, what); }
  template <typename T>
  void ranged(T& v, std::type_identity_t<T> lo, std::type_identity_t<T> hi,
              const char* what) {
    field(v);
    check(!(v < lo) && !(hi < v), what);
  }
  void check(bool ok, const char* what) {
    if (!ok) throw StateError(what);
  }
  template <typename M>
  void bit(M& mask, unsigned i) {
    const M one = M{1} << i;
    mask = get<bool>() ? (mask | one) : (mask & ~one);
  }

  template <typename S>
  void set(S& s) {
    s.clear();
    for (auto n = get<std::uint64_t>(); n > 0; --n) {
      s.insert(get<typename S::key_type>());
    }
  }
  template <typename M, typename F>
  void map(M& m, F&& fn) {
    m.clear();
    for (auto n = get<std::uint64_t>(); n > 0; --n) {
      const auto k = get<typename M::key_type>();
      typename M::mapped_type v{};
      fn(k, v);
      m.emplace(k, std::move(v));
    }
  }

  /// Throws StateError unless every payload byte was consumed.
  void finish() const;

 private:
  /// One field of type T, read into a fresh value.
  template <typename T>
  T get() {
    T v{};
    field(v);
    return v;
  }
  /// The next `len` (<= 8) payload bytes as a little-endian integer.
  std::uint64_t take_le(std::size_t len);

  std::string payload_;
  std::size_t pos_ = 0;
};

}  // namespace hybridnoc
