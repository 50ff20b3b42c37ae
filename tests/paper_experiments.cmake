# The paper tier: EXPERIMENTS.md pinned to what ara_paper prints.
#
# Runs `ara_paper --metrics <OUT_DIR>/paper.json` once, at
# ARA_BENCH_SCALE=0.5 and the default --jobs, validates the export with
# ara_json_check, and compares stdout with EXPERIMENTS.md's generated
# blocks. A block is the verbatim stdout of one ara_paper id, fenced as
# text between two markers naming the id:
#
#   <!-- BEGIN ara_paper fig01 -->
#   ```text
#   ...
#   ```
#   <!-- END ara_paper fig01 -->
#
# and the blocks appear in ara_paper's table order. Every row's output
# starts with its "Reproduction of" banner, which is where stdout is split
# into rows. On a difference the script names the first id whose block
# differs and writes both texts to OUT_DIR. With -DUPDATE=ON it rewrites
# the blocks from the same run instead of comparing (the one way to
# regenerate them, say after a dse::kSimVersionSalt bump). It also checks
# ara_paper's usage errors. Invoked by ctest as:
#   cmake -DPAPER=<ara_paper> -DCHECK=<ara_json_check>
#         -DEXPERIMENTS=<EXPERIMENTS.md> -DOUT_DIR=<dir> [-DUPDATE=ON]
#         -P paper_experiments.cmake
cmake_policy(VERSION 3.16)
foreach(var PAPER CHECK EXPERIMENTS OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_experiments.cmake requires -D${var}=...")
  endif()
  if(NOT var MATCHES "^OUT_DIR$" AND NOT EXISTS "${${var}}")
    message(FATAL_ERROR "paper_experiments.cmake: ${var} ${${var}} does not exist")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT_DIR}")

# --- usage errors -----------------------------------------------------------
# Each exits with `code` and names the problem on stderr; nothing simulates
# before a usage error (no [sweep] line).
macro(expect_exit code needle)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${code} OR NOT err MATCHES "${needle}" OR
     err MATCHES "\\[sweep\\]")
    message(FATAL_ERROR "expected exit ${code} and '${needle}' on stderr "
                        "from ${ARGN}, got ${rc}:\n${out}\n${err}")
  endif()
endmacro()

expect_exit(2 "unknown argument '--no-such-flag'" "${PAPER}" --no-such-flag)
expect_exit(2 "unknown figure id 'fig99'" "${PAPER}" fig01 fig99)
expect_exit(2 "ARA_BENCH_SCALE"
  "${CMAKE_COMMAND}" -E env ARA_BENCH_SCALE=abc "${PAPER}" fig01)
expect_exit(2 "scale must be finite"
  "${CMAKE_COMMAND}" -E env ARA_BENCH_SCALE=1e12 "${PAPER}" sec54)
# An unwritable metrics file fails the run after the tables are printed.
expect_exit(1 "cannot write metrics to"
  "${PAPER}" fig01 --metrics "${OUT_DIR}/no/such/dir/m.json")
if(NOT out MATCHES "Reproduction of Figure 1")
  message(FATAL_ERROR "fig01 printed no table before failing:\n${out}")
endif()

# --- the run ---------------------------------------------------------------
set(ENV{ARA_BENCH_SCALE} 0.5)
set(metrics "${OUT_DIR}/paper.json")
file(REMOVE "${metrics}")
execute_process(
  COMMAND "${PAPER}" --metrics "${metrics}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ara_paper failed (${rc}):\n${stdout}\n${err}")
endif()
execute_process(
  COMMAND "${CHECK}" "${metrics}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${metrics} is not valid JSON (${rc}):\n${out}\n${err}")
endif()
file(WRITE "${OUT_DIR}/paper.stdout.txt" "${stdout}")

# Split stdout into rows at each banner.
set(banner "==============================================================\nReproduction of ")
set(rows 0)
set(rest "${stdout}")
while(NOT rest STREQUAL "")
  string(FIND "${rest}" "${banner}" at)
  if(NOT at EQUAL 0)
    message(FATAL_ERROR "ara_paper row ${rows} does not start with its banner")
  endif()
  string(LENGTH "${banner}" skip)
  string(SUBSTRING "${rest}" ${skip} -1 tail)
  string(FIND "${tail}" "${banner}" next)
  if(next EQUAL -1)
    set(row_${rows} "${rest}")
    set(rest "")
  else()
    math(EXPR end "${next} + ${skip}")
    string(SUBSTRING "${rest}" 0 ${end} row_${rows})
    string(SUBSTRING "${rest}" ${end} -1 rest)
  endif()
  math(EXPR rows "${rows} + 1")
endwhile()

# Walk EXPERIMENTS.md's blocks in order: compare block i with row i, or
# (UPDATE) splice row i in as block i's new text.
file(READ "${EXPERIMENTS}" doc)
set(begin_tag "<!-- BEGIN ara_paper ")
set(fence "```text\n")
set(rest "${doc}")
set(rebuilt "")
set(expected "")
set(blocks 0)
set(first_diff "")
while(TRUE)
  string(FIND "${rest}" "${begin_tag}" at)
  if(at EQUAL -1)
    break()
  endif()
  string(SUBSTRING "${rest}" 0 ${at} before)
  string(SUBSTRING "${rest}" ${at} -1 rest)
  string(FIND "${rest}" " -->\n${fence}" id_end)
  string(LENGTH "${begin_tag}" tag_len)
  if(id_end LESS tag_len)
    message(FATAL_ERROR "EXPERIMENTS.md: block ${blocks} has a malformed "
                        "BEGIN marker")
  endif()
  math(EXPR id_len "${id_end} - ${tag_len}")
  string(SUBSTRING "${rest}" ${tag_len} ${id_len} id)
  string(LENGTH " -->\n${fence}" open_len)
  math(EXPR body_at "${id_end} + ${open_len}")
  string(SUBSTRING "${rest}" 0 ${body_at} opening)
  string(SUBSTRING "${rest}" ${body_at} -1 rest)
  set(closing "```\n<!-- END ara_paper ${id} -->")
  string(FIND "${rest}" "${closing}" body_len)
  if(body_len EQUAL -1)
    message(FATAL_ERROR "EXPERIMENTS.md: block '${id}' has no END marker")
  endif()
  string(SUBSTRING "${rest}" 0 ${body_len} body)
  string(SUBSTRING "${rest}" ${body_len} -1 rest)
  if(blocks LESS rows)
    set(row "${row_${blocks}}")
  else()
    set(row "")
  endif()
  string(COMPARE EQUAL "${body}" "${row}" same)
  if(NOT same AND first_diff STREQUAL "")
    set(first_diff "${id}")
  endif()
  string(APPEND rebuilt "${before}${opening}${row}")
  string(APPEND expected "${body}")
  math(EXPR blocks "${blocks} + 1")
endwhile()
string(APPEND rebuilt "${rest}")

if(NOT blocks EQUAL rows)
  message(FATAL_ERROR "EXPERIMENTS.md has ${blocks} generated blocks but "
                      "ara_paper printed ${rows} rows")
endif()
if(UPDATE)
  file(WRITE "${EXPERIMENTS}" "${rebuilt}")
  message(STATUS "rewrote ${blocks} generated blocks in ${EXPERIMENTS}")
  return()
endif()
if(NOT first_diff STREQUAL "")
  file(WRITE "${OUT_DIR}/paper.expected.txt" "${expected}")
  message(FATAL_ERROR "EXPERIMENTS.md block '${first_diff}' differs from "
                      "what ara_paper prints at scale 0.5; compare "
                      "${OUT_DIR}/paper.expected.txt (the blocks) with "
                      "${OUT_DIR}/paper.stdout.txt (ara_paper)")
endif()
message(STATUS "paper experiments ok: ${blocks} EXPERIMENTS.md blocks match "
               "ara_paper, metrics export valid, usage errors rejected")
