# Smoke test for the observability exporters and the on-disk result cache:
# check that malformed arguments are usage errors (ara_sim,
# design_space_explorer and ara_serve_client) and that --help describes
# each front end's --metrics format, run ara_sim with --trace and
# --metrics on a small config, validate every produced file with the
# strict JSON checker (ara_json_check, no external deps), then exercise
# design_space_explorer's --cache directory — cold write, warm re-read, and
# corrupt-file tolerance. Invoked by ctest as:
#   cmake -DCLI=<ara_sim> -DDSE=<design_space_explorer>
#         -DCLIENT=<ara_serve_client> -DCHECK=<ara_json_check>
#         -DOUT_DIR=<dir> -P cli_smoke.cmake
foreach(var CLI DSE CLIENT CHECK OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_smoke.cmake requires -D${var}=...")
  endif()
  if(NOT var MATCHES "^OUT_DIR$" AND NOT EXISTS "${${var}}")
    message(FATAL_ERROR "cli_smoke.cmake: ${var} ${${var}} does not exist")
  endif()
endforeach()

# --- malformed arguments ----------------------------------------------------
# A bad value exits 2 with a message naming what was wrong, before anything
# simulates: no uncaught exception, no wrapped integer, no silent default.
function(expect_usage_error needle)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${needle}")
    message(FATAL_ERROR "expected exit 2 and '${needle}' on stderr from "
                        "${ARGN}, got ${rc}:\n${out}\n${err}")
  endif()
endfunction()

expect_usage_error("--islands" "${CLI}" --islands banana)
expect_usage_error("--islands" "${CLI}" --islands 4294967299)
expect_usage_error("--scale" "${CLI}" --scale x)
expect_usage_error("scale must be finite" "${CLI}" --scale -1)
# --offline N must leave a block of every kind the benchmark uses online.
# On 24 proxy islands every sqrt block, which EKF-SLAM needs, sits on
# islands 0..8, so 9 is refused (it would never finish), 8 runs, and
# taking every island offline leaves no kind at all.
set(ekf_24 --bench EKF-SLAM --islands 24 --net proxy --scale 0.05)
expect_usage_error("--offline 9 leaves no online sqrt block, which EKF-SLAM"
  "${CLI}" ${ekf_24} --offline 9)
expect_usage_error("--offline 24 leaves no online" "${CLI}" ${ekf_24}
  --offline 24)
execute_process(COMMAND "${CLI}" ${ekf_24} --offline 8
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ara_sim --offline 8 failed (${rc}):\n${out}\n${err}")
endif()
expect_usage_error("unknown benchmark 'Nonesuch'" "${DSE}" Nonesuch)
expect_usage_error("--jobs" "${DSE}" --jobs 4294967297)
# The client checks its flags before it connects: each of these would
# otherwise fail to reach the socket and exit 1.
set(no_socket "${OUT_DIR}/no-such-daemon.sock")
expect_usage_error("--scale" "${CLIENT}" --socket "${no_socket}" --scale abc)
expect_usage_error("--scale only applies to --sweep"
  "${CLIENT}" --socket "${no_socket}" --scale 0.5)
expect_usage_error("unknown option '--search'"
  "${CLIENT}" --socket "${no_socket}" --search Denoise)
# One flag chooses what the client sends. A second one, or an option of
# another mode, is a usage error naming both flags instead of being
# silently dropped.
set(ping_json "{\"type\":\"ping\"}")
expect_usage_error("--ping and --sweep"
  "${CLIENT}" --socket "${no_socket}" --ping --sweep Denoise)
expect_usage_error("--stats and --json"
  "${CLIENT}" --socket "${no_socket}" --stats --json "${ping_json}")
expect_usage_error("--watch and --sweep"
  "${CLIENT}" --socket "${no_socket}" --watch --sweep Denoise --count 1)
expect_usage_error("--client does not apply to --json"
  "${CLIENT}" --socket "${no_socket}" --json "${ping_json}" --client me)
expect_usage_error("--client does not apply to --watch"
  "${CLIENT}" --socket "${no_socket}" --watch --client me)
expect_usage_error("--count only applies to --watch"
  "${CLIENT}" --socket "${no_socket}" --ping --count 1)

# --metrics writes CSV for a .csv path only in ara_sim;
# design_space_explorer always writes labeled JSON, and each --help says
# which.
function(expect_help binary want_csv)
  execute_process(
    COMMAND "${binary}" --help
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "--metrics FILE")
    message(FATAL_ERROR "${binary} --help failed or lists no --metrics "
                        "(${rc}):\n${out}\n${err}")
  endif()
  if(want_csv AND NOT out MATCHES "\\.csv")
    message(FATAL_ERROR "${binary} --help does not say a .csv path gets "
                        "CSV:\n${out}")
  elseif(NOT want_csv AND out MATCHES "\\.csv")
    message(FATAL_ERROR "${binary} --help promises CSV output it never "
                        "writes:\n${out}")
  endif()
endfunction()
expect_help("${CLI}" TRUE)
expect_help("${DSE}" FALSE)

file(MAKE_DIRECTORY "${OUT_DIR}")
set(trace_file "${OUT_DIR}/smoke_trace.json")
set(metrics_file "${OUT_DIR}/smoke_metrics.json")
set(metrics_csv "${OUT_DIR}/smoke_metrics.csv")

execute_process(
  COMMAND "${CLI}" --bench Denoise --islands 6 --scale 0.05
          --trace "${trace_file}" --metrics "${metrics_file}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ara_sim failed (${rc}):\n${out}\n${err}")
endif()

foreach(f "${trace_file}" "${metrics_file}")
  if(NOT EXISTS "${f}")
    message(FATAL_ERROR "ara_sim did not write ${f}")
  endif()
endforeach()

# The report ends with the Sec. 5.5 verdict: the most saturated resource.
if(NOT out MATCHES "\nbinding resource: [^\n]+ at [0-9.]+%\n")
  message(FATAL_ERROR "ara_sim's report names no binding resource:\n${out}")
endif()

# ara_sim prints the invariant checker's line exactly when checking is
# armed: with --check, and not when --check=0 overrides ARA_CHECK=1.
set(small_point --bench Denoise --islands 6 --scale 0.02)
execute_process(COMMAND "${CLI}" ${small_point} --check
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR
   NOT out MATCHES "\ninvariant checker: [1-9][0-9]* checks passed\n")
  message(FATAL_ERROR "ara_sim --check printed no checker line (${rc}):\n"
                      "${out}\n${err}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env ARA_CHECK=1 "${CLI}" ${small_point}
          --check=0
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR out MATCHES "invariant checker")
  message(FATAL_ERROR "ara_sim --check=0 under ARA_CHECK=1 printed a "
                      "checker line (${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${CHECK}" "${trace_file}" "${metrics_file}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "JSON validation failed (${rc}):\n${out}\n${err}")
endif()

# The metrics JSON must carry counters from the four major subsystems.
file(READ "${metrics_file}" metrics_text)
foreach(prefix "island." "noc." "mem." "abc.")
  if(NOT metrics_text MATCHES "\"${prefix}")
    message(FATAL_ERROR "metrics JSON has no '${prefix}*' stats")
  endif()
endforeach()

# The trace must contain spans from >= 3 subsystems plus counter samples.
file(READ "${trace_file}" trace_text)
foreach(needle "\"cat\":\"task\"" "\"cat\":\"dma\"" "\"cat\":\"gam\""
        "\"ph\":\"C\"" "\"ph\":\"M\"")
  string(FIND "${trace_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "trace JSON is missing ${needle}")
  endif()
endforeach()

# CSV export path: header row + at least one counter row.
execute_process(
  COMMAND "${CLI}" --bench Denoise --islands 6 --scale 0.05 --csv
          --metrics "${metrics_csv}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ara_sim --metrics csv failed (${rc}):\n${out}\n${err}")
endif()
file(READ "${metrics_csv}" csv_text)
if(NOT csv_text MATCHES "^kind,name,value,count,mean,min,max,p50,p95,p99\n")
  message(FATAL_ERROR "metrics CSV header mismatch")
endif()
if(NOT csv_text MATCHES "counter,island\\.")
  message(FATAL_ERROR "metrics CSV has no island counters")
endif()

# --- on-disk result cache smoke -------------------------------------------
# Cold run populates the cache directory; the warm run must restore every
# point from disk; corrupting one entry must degrade to a clean miss, not an
# error. Every cache file must be strictly valid JSON.
set(cache_dir "${OUT_DIR}/result_cache")
file(REMOVE_RECURSE "${cache_dir}")

execute_process(
  COMMAND "${DSE}" Denoise --cache "${cache_dir}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE cold_out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explorer cold cache run failed (${rc}):\n"
                      "${cold_out}\n${err}")
endif()
file(GLOB cache_files "${cache_dir}/*.json")
list(LENGTH cache_files n_cache_files)
if(n_cache_files EQUAL 0)
  message(FATAL_ERROR "cold run wrote no cache files to ${cache_dir}")
endif()
if(NOT cold_out MATCHES "0/([0-9]+) points restored")
  message(FATAL_ERROR "cold run unexpectedly hit the cache:\n${cold_out}")
endif()

# Every cache entry is strict RFC 8259 JSON.
execute_process(
  COMMAND "${CHECK}" ${cache_files}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cache entry JSON validation failed (${rc}):\n"
                      "${out}\n${err}")
endif()

execute_process(
  COMMAND "${DSE}" Denoise --cache "${cache_dir}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE warm_out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explorer warm cache run failed (${rc}):\n"
                      "${warm_out}\n${err}")
endif()
if(NOT warm_out MATCHES "${n_cache_files}/${n_cache_files} points restored")
  message(FATAL_ERROR "warm run did not restore every point from the "
                      "cache:\n${warm_out}")
endif()

# Corrupt one entry: the next run must treat it as a miss, re-simulate that
# point, and still succeed with every other point restored.
list(GET cache_files 0 victim)
file(WRITE "${victim}" "{ truncated garbage")
execute_process(
  COMMAND "${DSE}" Denoise --cache "${cache_dir}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE corrupt_out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explorer failed on a corrupt cache entry (${rc}):\n"
                      "${corrupt_out}\n${err}")
endif()
math(EXPR n_minus_one "${n_cache_files} - 1")
if(NOT corrupt_out MATCHES "${n_minus_one}/${n_cache_files} points restored")
  message(FATAL_ERROR "corrupt entry was not treated as a single miss:\n"
                      "${corrupt_out}")
endif()
# And the corrupt file was repaired by the re-simulated point.
execute_process(
  COMMAND "${CHECK}" "${victim}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "corrupt cache entry was not rewritten (${rc}):\n"
                      "${out}\n${err}")
endif()

message(STATUS "cli smoke ok: trace + metrics JSON/CSV valid; result cache "
               "cold/warm/corrupt all behaved")
