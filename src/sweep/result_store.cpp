#include "sweep/result_store.hpp"

#include <filesystem>

#include "common/assert.hpp"
#include "common/fileio.hpp"
#include "common/state_io.hpp"

namespace hybridnoc::sweep {

namespace {

/// An entry's layout. A version or config-hash mismatch throws StateError
/// like any corruption, which decode_result reports as a miss.
template <typename Ar, typename Result>
void result_layout(Ar& ar, std::uint64_t config_hash, Result& r) {
  ar.section("sweep_result");
  ar.expect(kResultStoreVersion, "result store version mismatch");
  ar.expect(config_hash, "result store entry for another config");
  ar.fields(r.offered_rate, r.accepted_rate, r.avg_latency, r.p99_latency,
            r.saturated, r.measured_packets, r.cycles, r.energy,
            r.cs_flit_fraction, r.config_flit_fraction);
}

}  // namespace

std::string encode_result(std::uint64_t config_hash, const RunResult& r) {
  StateWriter w;
  result_layout(w, config_hash, r);
  return w.seal();
}

std::optional<RunResult> decode_result(const std::string& bytes,
                                       std::uint64_t config_hash) {
  try {
    StateReader rd(bytes);
    RunResult r;
    result_layout(rd, config_hash, r);
    rd.finish();
    return r;
  } catch (const StateError&) {
    return std::nullopt;
  }
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  HN_CHECK_MSG(!ec, "result store: cannot create directory");
}

std::string ResultStore::path_for(std::uint64_t config_hash) const {
  return dir_ + "/" + hex64(config_hash) + ".result";
}

std::optional<RunResult> ResultStore::load(std::uint64_t config_hash) const {
  std::string bytes;
  if (!read_file(path_for(config_hash), &bytes)) return std::nullopt;
  return decode_result(bytes, config_hash);
}

bool ResultStore::store(std::uint64_t config_hash, const RunResult& r,
                        std::string* error) {
  return write_file_atomic(path_for(config_hash),
                           encode_result(config_hash, r), error);
}

}  // namespace hybridnoc::sweep
