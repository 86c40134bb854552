#include "common/assert.hpp"

#include <cstdio>
#include <cstdlib>

namespace hybridnoc {

void check_failed(const char* expr, const char* file, int line,
                  const char* msg) {
  std::fprintf(stderr, "HN_CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               msg ? " — " : "", msg ? msg : "");
  std::abort();
}

}  // namespace hybridnoc
