# Smoke test for the autotuning-search benchmark: run the small space at a
# reduced workload scale, require the exhaustive grid and every budgeted
# search to complete, and strictly validate the emitted BENCH_search.json
# with ara_json_check. Invoked by ctest as:
#   cmake -DBENCH=<bench_search> -DCHECK=<ara_json_check>
#         -DOUT_DIR=<dir> -P bench_search_smoke.cmake
foreach(var BENCH CHECK OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_search_smoke.cmake requires -D${var}=...")
  endif()
  if(NOT var MATCHES "^OUT_DIR$" AND NOT EXISTS "${${var}}")
    message(FATAL_ERROR "bench_search_smoke.cmake: ${var} ${${var}} does not exist")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(report "${OUT_DIR}/BENCH_search.json")

# A scale that is not a whole finite number > 0 is a usage error, before
# anything simulates: no abort, no silently truncated value.
foreach(bad inf 0.01abc)
  execute_process(
    COMMAND "${BENCH}" --space small --scale ${bad} --out "${report}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--scale")
    message(FATAL_ERROR "bench_search --scale ${bad} exited ${rc} "
                        "(expected 2, naming --scale):\n${out}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND "${BENCH}" --space small --scale 0.02 --out "${report}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_search failed (${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS "${report}")
  message(FATAL_ERROR "bench_search did not write ${report}")
endif()

execute_process(
  COMMAND "${CHECK}" "${report}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "BENCH_search.json is not valid JSON (${rc}):\n"
                      "${out}\n${err}")
endif()

# Shape checks: the grid reference, every budget row, and the warm rerun
# are present, and the warm rerun simulated nothing.
file(READ "${report}" report_text)
foreach(needle "\"bench\":\"search\"" "\"grid\"" "\"budgets\""
        "\"found_optimal\"" "\"gap\"" "\"warm_rerun\"")
  string(FIND "${report_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "BENCH_search.json is missing ${needle}")
  endif()
endforeach()
if(NOT report_text MATCHES "\"warm_rerun\":{\"budget\":[0-9]+,\"simulated\":0,")
  message(FATAL_ERROR "warm search rerun re-simulated points:\n${report_text}")
endif()

message(STATUS "search bench smoke ok: report valid, warm rerun fully cached")
