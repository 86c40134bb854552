# Record the simspeed baselines that the regression gates compare against.
# Each gate compares the JSON one measuring test writes into the build tree
# with the repo-root file of the same name (bench/CMakeLists.txt):
#   bench_simspeed_smoke          -> BENCH_simspeed.json    (all rows)
#   bench_perf_large_mesh         -> BENCH_perf32.json      (BM_LargeMeshCycle/32)
#   bench_perf_loaded_saturation  -> BENCH_perf_loaded.json (BM_LoadedSaturation/8)
# A row's floor is the minimum, over several runs of that one test, of the
# best repetition the gate computes for it (simspeed_rows.cmake), so on a
# noisy machine the floor sits at the low end of the run-to-run spread the
# gate itself sees. The `bench_baseline` target runs:
#   cmake -DCTEST=<ctest> -DBUILD_DIR=<build> \
#         -DRUNS_DIR=<build>/bench_baseline_runs -DOUT_DIR=<repo> \
#         -P record_simspeed_baseline.cmake
# With CTEST set, RUNS_DIR is emptied and each of 10 rounds runs the three
# measuring tests through ctest, so the runs use exactly the gates' flags;
# each round's JSON files are copied to RUNS_DIR/<file stem>/. Only after
# every round succeeded are the three baselines written to OUT_DIR. Without
# CTEST the script floors the JSON files already in RUNS_DIR into OUT (the
# self-test's fixture runs); a row missing from some runs is floored over
# the runs that hold it.
#
# A baseline keeps the first run's context block (machine and build stamp)
# without the executable path, and one {name, run_type, items_per_second}
# row per name. It is written to <file>.tmp and renamed, so an interrupted
# re-record never leaves a torn baseline.
include(${CMAKE_CURRENT_LIST_DIR}/simspeed_rows.cmake)

# write_floors(<out> <run.json>...): the per-row minimum over the runs.
function(write_floors out)
  set(names "")
  foreach(run IN LISTS ARGN)
    file(READ "${run}" json)
    if(NOT DEFINED context)
      string(JSON context GET "${json}" context)
      # The binary's path names the checkout, not the machine or the build.
      string(JSON context ERROR_VARIABLE err REMOVE "${context}" executable)
    endif()
    parse_benchmarks("${json}" r)
    foreach(name IN LISTS r_names)
      string(MAKE_C_IDENTIFIER "${name}" key)
      if(NOT DEFINED floor_${key})
        set(floor_${key} "${r_${key}}")
        list(APPEND names "${name}")
      elseif(r_${key} LESS floor_${key})
        set(floor_${key} "${r_${key}}")
      endif()
    endforeach()
  endforeach()

  set(doc "{}")
  string(JSON doc SET "${doc}" context "${context}")
  string(JSON doc SET "${doc}" benchmarks "[]")
  set(i 0)
  foreach(name IN LISTS names)
    string(MAKE_C_IDENTIFIER "${name}" key)
    string(JSON doc SET "${doc}" benchmarks ${i}
           "{\"name\": \"${name}\", \"run_type\": \"iteration\", \"items_per_second\": ${floor_${key}}}")
    math(EXPR i "${i} + 1")
  endforeach()
  file(WRITE "${out}.tmp" "${doc}\n")
  file(RENAME "${out}.tmp" "${out}")
  list(LENGTH ARGN n_runs)
  message(STATUS "record_simspeed_baseline: wrote ${i} floors over ${n_runs} runs to ${out}")
endfunction()

if(NOT DEFINED RUNS_DIR)
  message(FATAL_ERROR "record_simspeed_baseline: -DRUNS_DIR=<path> is required")
endif()

if(NOT DEFINED CTEST)
  if(NOT DEFINED OUT)
    message(FATAL_ERROR "record_simspeed_baseline: -DOUT=<path> is required without CTEST")
  endif()
  file(GLOB runs "${RUNS_DIR}/*.json")
  list(SORT runs)
  if(NOT runs)
    message(FATAL_ERROR "record_simspeed_baseline: no JSON runs in ${RUNS_DIR}")
  endif()
  write_floors("${OUT}" ${runs})
  return()
endif()

foreach(var BUILD_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "record_simspeed_baseline: -D${var}=<path> is required with CTEST")
  endif()
endforeach()
# The measuring tests and the file each writes (bench/CMakeLists.txt).
set(measure_tests bench_simspeed_smoke bench_perf_large_mesh
                  bench_perf_loaded_saturation)
set(measure_json BENCH_simspeed.json BENCH_perf32.json BENCH_perf_loaded.json)
set(rounds 10)
string(JOIN "|" tests_regex ${measure_tests})
file(REMOVE_RECURSE "${RUNS_DIR}")
foreach(round RANGE 1 ${rounds})
  message(STATUS "record_simspeed_baseline: round ${round}/${rounds}")
  execute_process(COMMAND ${CTEST} -R "^(${tests_regex})$"
                  WORKING_DIRECTORY "${BUILD_DIR}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "record_simspeed_baseline: measuring tests failed "
                        "in round ${round}; baselines left unchanged")
  endif()
  # Zero-padded so the glob below sorts rounds in order.
  string(LENGTH "${round}" len)
  if(len EQUAL 1)
    set(round "0${round}")
  endif()
  foreach(json IN LISTS measure_json)
    get_filename_component(stem "${json}" NAME_WE)
    configure_file("${BUILD_DIR}/${json}" "${RUNS_DIR}/${stem}/run${round}.json"
                   COPYONLY)
  endforeach()
endforeach()

foreach(json IN LISTS measure_json)
  get_filename_component(stem "${json}" NAME_WE)
  file(GLOB runs "${RUNS_DIR}/${stem}/*.json")
  list(SORT runs)
  write_floors("${OUT_DIR}/${json}" ${runs})
endforeach()
