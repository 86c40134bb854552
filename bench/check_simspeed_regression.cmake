# Compare a fresh benchmark JSON (e.g. BENCH_simspeed.json) against the
# checked-in baseline of the same name and fail on a cycle-throughput
# regression. Run as a ctest step:
#   cmake -DBASELINE=<repo>/BENCH_simspeed.json \
#         -DCURRENT=<build>/BENCH_simspeed.json \
#         [-DTOLERANCE=0.20] -P check_simspeed_regression.cmake
#
# Only benchmarks present in BOTH files are compared (new benchmarks don't
# fail until a baseline containing them is recorded), and only on
# items_per_second (node-cycles per wall second). When a run carries
# repetitions, the best (max) repetition per benchmark is used on both
# sides — single-shot sub-10ns microbenchmarks swing ~20% run to run on a
# shared machine, which is exactly the tolerance; best-of-N is stable.
# Aggregate rows (mean/median/stddev) are skipped; simspeed_rows.cmake holds
# the row reader the baseline recorder shares. The baseline is
# machine-specific: re-record it on your machine with the `bench_baseline`
# target (record_simspeed_baseline.cmake) before trusting absolute numbers.
# The script compares the `context` blocks of the two files and reports
# every machine or build field that differs, both on its own and inside a
# failure message; a mismatch alone never fails the check.
if(NOT DEFINED TOLERANCE)
  set(TOLERANCE 0.20)
endif()

foreach(var BASELINE CURRENT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_simspeed_regression: -D${var}=<file> is required")
  endif()
  if(NOT EXISTS "${${var}}")
    message(FATAL_ERROR "check_simspeed_regression: ${var} file not found: ${${var}}")
  endif()
endforeach()

file(READ "${BASELINE}" baseline_json)
file(READ "${CURRENT}" current_json)

include(${CMAKE_CURRENT_LIST_DIR}/simspeed_rows.cmake)

parse_benchmarks("${current_json}" cur)
parse_benchmarks("${baseline_json}" base)

# Machine stamp: a throughput floor only means something on the machine and
# build the baseline was recorded on. library_build_type describes
# libbenchmark itself; hn_build_type and hn_compiler, which the measuring
# tests pass with --benchmark_context, describe this tree's build. A missing
# field reads as context-<field>-NOTFOUND.
set(machine_text "")
foreach(field num_cpus mhz_per_cpu host_name library_build_type
              hn_build_type hn_compiler)
  string(JSON base_value ERROR_VARIABLE err GET "${baseline_json}" context ${field})
  string(JSON cur_value ERROR_VARIABLE err GET "${current_json}" context ${field})
  if(NOT base_value STREQUAL cur_value)
    string(APPEND machine_text
           "machine mismatch: ${field} baseline=${base_value} current=${cur_value}\n")
  endif()
endforeach()
if(machine_text)
  string(APPEND machine_text
         "The baseline was recorded on another machine or build. On this one, "
         "re-record it with:\n"
         "  cmake --build <build-dir> --target bench_baseline\n")
  message(STATUS "${machine_text}")
endif()

# floor = baseline * (1 - TOLERANCE). CMake's math() is integer-only, so
# express the tolerance as an integer keep-percentage.
set(keep_pct 100)
string(REGEX MATCH "^0\\.([0-9][0-9]?)" tol_match "${TOLERANCE}")
if(tol_match)
  set(tol_digits "${CMAKE_MATCH_1}")
  string(LENGTH "${tol_digits}" tl)
  if(tl EQUAL 1)
    math(EXPR keep_pct "100 - ${tol_digits} * 10")
  else()
    math(EXPR keep_pct "100 - ${tol_digits}")
  endif()
endif()

set(failures "")
set(compared 0)
foreach(name IN LISTS base_names)
  string(MAKE_C_IDENTIFIER "${name}" key)
  if(NOT DEFINED cur_${key})
    message(STATUS "skipped (not in current run): ${name}")
    continue()
  endif()
  math(EXPR compared "${compared} + 1")
  set(base_int "${base_${key}}")
  set(cur_int "${cur_${key}}")
  math(EXPR floor_int "${base_int} * ${keep_pct} / 100")
  if(cur_int LESS floor_int)
    list(APPEND failures
         "${name}: ${cur_int} items/s < floor ${floor_int} (baseline ${base_int}, keep ${keep_pct}%)")
  else()
    message(STATUS "ok: ${name}  current=${cur_int}  baseline=${base_int}  floor=${floor_int}")
  endif()
endforeach()

if(compared EQUAL 0)
  message(FATAL_ERROR "check_simspeed_regression: no comparable benchmarks between ${BASELINE} and ${CURRENT}")
endif()
if(failures)
  string(REPLACE ";" "\n  " failure_text "${failures}")
  message(FATAL_ERROR "cycle-throughput regression (> allowed tolerance):\n  ${failure_text}\n${machine_text}")
endif()
message(STATUS "simspeed regression check passed: ${compared} benchmarks within tolerance")
