// Lightweight always-on invariant checks for the simulator.
//
// Simulation bugs (mis-routed flits, credit underflow, slot-table corruption)
// silently skew results if allowed to proceed, so HN_CHECK stays active in
// release builds. The cost is a predictable branch per check and is invisible
// next to the per-cycle work of the simulator.
//
// A failed check prints the expression and aborts. HN_CHECK guards the
// simulator's own invariants only: values read from files, specs or flags
// are checked with InputError (common/input.hpp) where they are read.
#pragma once

namespace hybridnoc {

/// Prints the failed check and aborts.
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const char* msg);

}  // namespace hybridnoc

#define HN_CHECK(expr)                                                      \
  do {                                                                      \
    if (!(expr)) ::hybridnoc::check_failed(#expr, __FILE__, __LINE__, nullptr); \
  } while (0)

#define HN_CHECK_MSG(expr, msg)                                          \
  do {                                                                   \
    if (!(expr)) ::hybridnoc::check_failed(#expr, __FILE__, __LINE__, msg); \
  } while (0)
