# Smoke test for the paper-reproduction binaries (the Sec. 1-5 and
# Fig. 1-10 benches): run each at a tiny workload scale with --metrics,
# require exit 0 and a strictly valid metrics export (ara_json_check), and
# require an unknown flag to be rejected with exit 2. Invoked by ctest as:
#   cmake -DBENCH_DIR=<dir> -DCHECK=<ara_json_check> -DOUT_DIR=<dir>
#         -P paper_smoke.cmake
foreach(var BENCH_DIR CHECK OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_smoke.cmake requires -D${var}=...")
  endif()
  if(NOT var MATCHES "^OUT_DIR$" AND NOT EXISTS "${${var}}")
    message(FATAL_ERROR "paper_smoke.cmake: ${var} ${${var}} does not exist")
  endif()
endforeach()

# Every bench/ binary except bench_search (smoke-tested on its own).
set(benches
  bench_intro_compute_energy
  bench_fig01_params
  bench_fig02_pipeline_energy
  bench_fig03_asic_energy
  bench_sec2_generations
  bench_sec4_system_params
  bench_sec51_spm_sharing
  bench_sec52_chaining_xbar
  bench_sec53_ring_width
  bench_sec54_spm_porting
  bench_sec57_area_breakdown
  bench_fig06_network_islands
  bench_fig07_ring_topology
  bench_fig08_perf_per_energy
  bench_fig09_perf_per_area
  bench_fig10_cmp_comparison
  bench_ablation_design)

file(MAKE_DIRECTORY "${OUT_DIR}")
set(ENV{ARA_BENCH_SCALE} 0.01)
set(ENV{ARA_JOBS} 2)
foreach(bench ${benches})
  set(metrics "${OUT_DIR}/${bench}.json")
  file(REMOVE "${metrics}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" --metrics "${metrics}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (${rc}):\n${out}\n${err}")
  endif()
  execute_process(
    COMMAND "${CHECK}" "${metrics}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench}: ${metrics} is not valid JSON (${rc}):\n"
                        "${out}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND "${BENCH_DIR}/bench_fig01_params" --no-such-flag
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(FIND "${err}" "--no-such-flag" named)
if(NOT rc EQUAL 2 OR named EQUAL -1)
  message(FATAL_ERROR "bench_fig01_params --no-such-flag exited ${rc} "
                      "(expected 2, naming the flag):\n${out}\n${err}")
endif()

list(LENGTH benches count)
message(STATUS "paper smoke ok: ${count} benches ran with valid metrics, "
               "unknown flag rejected")
