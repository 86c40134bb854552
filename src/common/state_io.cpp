#include "common/state_io.hpp"

#include <cstring>

#include "common/fileio.hpp"

namespace hybridnoc {

namespace {

constexpr char kMagic[8] = {'H', 'N', 'S', 'T', 'A', 'T', 'E', '\n'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kSectionMarker = 0x53454354u;  // 'SECT'
constexpr std::size_t kHeader = sizeof(kMagic) + 4 + 8;

std::uint64_t load_le(const char* p, std::size_t len) {
  std::uint64_t v = 0;
  for (std::size_t i = len; i-- > 0;) {
    v = v << 8 | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

void StateWriter::section(const char* name) {
  u32(kSectionMarker);
  str(name);
}

std::string StateWriter::seal() const {
  StateWriter out;
  out.payload_.reserve(payload_.size() + kHeader + 8);
  out.payload_.append(kMagic, sizeof(kMagic));
  out.u32(kVersion);
  out.u64(payload_.size());
  out.payload_ += payload_;
  out.u64(fnv1a64(payload_.data(), payload_.size()));
  return std::move(out.payload_);
}

StateReader::StateReader(const std::string& sealed) {
  if (sealed.size() < kHeader + 8) throw StateError("state archive truncated");
  if (std::memcmp(sealed.data(), kMagic, sizeof(kMagic)) != 0) {
    throw StateError("state archive bad magic");
  }
  const auto version =
      static_cast<std::uint32_t>(load_le(sealed.data() + sizeof(kMagic), 4));
  if (version != kVersion) {
    throw StateError("state archive version mismatch (have " +
                     std::to_string(version) + ", want " +
                     std::to_string(kVersion) + ")");
  }
  const std::uint64_t size = load_le(sealed.data() + sizeof(kMagic) + 4, 8);
  if (sealed.size() != kHeader + size + 8) {
    throw StateError("state archive size mismatch");
  }
  const std::uint64_t want = load_le(sealed.data() + kHeader + size, 8);
  const std::uint64_t have = fnv1a64(sealed.data() + kHeader, size);
  if (want != have) throw StateError("state archive digest mismatch");
  payload_.assign(sealed, kHeader, size);
}

std::uint64_t StateReader::take_le(std::size_t len) {
  if (len > payload_.size() - pos_) throw StateError("state archive underrun");
  const std::uint64_t v = load_le(payload_.data() + pos_, len);
  pos_ += len;
  return v;
}

void StateReader::section(const char* name) {
  if (get<std::uint32_t>() != kSectionMarker) {
    throw StateError(std::string("expected section marker before '") + name +
                     "'");
  }
  const auto have = get<std::string>();
  if (have != name) {
    throw StateError("section mismatch: expected '" + std::string(name) +
                     "', found '" + have + "'");
  }
}

void StateReader::finish() const {
  if (pos_ != payload_.size()) throw StateError("trailing bytes in state archive");
}

}  // namespace hybridnoc
