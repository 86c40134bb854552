// Canonical serialization of a sweep point's identity.
//
// The result store is content-addressed: a sweep point is *named* by the
// digest of every field that can influence its simulated behavior
// (NocConfig + RunParams), serialized in a fixed, versioned binary layout.
// Two spec files that expand to the same point share one cache entry;
// changing any behavioral knob — or bumping kCanonicalVersion after a
// simulator-behavior change — changes the name and naturally invalidates
// stale entries.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "sim/run_types.hpp"

namespace hybridnoc::sweep {

/// Bump on any layout change here, and on simulator changes that alter
/// results for unchanged configs (cached results would otherwise be
/// silently wrong). Version 2: sweep points measure straight after warmup,
/// as run_synthetic does, instead of after a drained warmup checkpoint.
inline constexpr std::uint32_t kCanonicalVersion = 2;

/// Fixed-layout little-endian serialization of every behavioral field of
/// (cfg, params), prefixed with kCanonicalVersion.
std::string canonical_bytes(const NocConfig& cfg, const RunParams& params);

/// FNV-1a-64 over canonical_bytes: the sweep point's content address.
std::uint64_t config_hash(const NocConfig& cfg, const RunParams& params);

}  // namespace hybridnoc::sweep
