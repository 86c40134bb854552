// Checks for outside input that the program must reject with InputError —
// the input-side counterpart of EXPECT_DEATH.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "common/input.hpp"

namespace hybridnoc {

/// what() of the InputError `f` throws, or a note that it threw none.
template <typename F>
std::string input_error(F&& f) {
  try {
    f();
  } catch (const InputError& e) {
    return e.what();
  }
  return "(no InputError thrown)";
}

}  // namespace hybridnoc

/// `statement` throws InputError and its what() contains `text`.
#define EXPECT_INPUT_ERROR(statement, text)                                  \
  do {                                                                       \
    const std::string hn_what = ::hybridnoc::input_error([&] { statement; }); \
    EXPECT_NE(hn_what.find(text), std::string::npos) << hn_what;             \
  } while (0)
