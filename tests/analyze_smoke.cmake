# Smoke test for the ara_analyze CLI contract, run by ctest in two parts.
#
# PART=per-file (ctest lint_smoke): the per-file fixture corpus must fail
# the gate (exit 1) with every per-file rule represented, a clean file
# must pass (exit 0), a fully-suppressed file must pass while reporting
# its suppression count, --json must be strict RFC 8259 (validated with
# ara_json_check) and --list-rules must name every per-file rule.
#
# PART=cross-file (ctest analyze_smoke): the seeded bad/ twin must fail
# with every cross-file analysis represented, the corrected good/ twin
# must pass, --json over per-file and cross-file findings together must
# be strict RFC 8259, --list-rules must name every analysis and --help
# must print the usage.
#
# Invoked as:
#   cmake -DPART=per-file -DANALYZE=<ara_analyze> -DCHECK=<ara_json_check>
#         -DLINT_FIXTURES=<tests/lint_fixtures> -DOUT_DIR=<dir>
#         -P analyze_smoke.cmake
#   cmake -DPART=cross-file -DANALYZE=<ara_analyze> -DCHECK=<ara_json_check>
#         -DFIXTURES=<tests/analyze_fixtures>
#         -DLINT_FIXTURES=<tests/lint_fixtures> -DOUT_DIR=<dir>
#         -P analyze_smoke.cmake
if(PART STREQUAL "per-file")
  set(inputs LINT_FIXTURES)
elseif(PART STREQUAL "cross-file")
  set(inputs FIXTURES LINT_FIXTURES)
else()
  message(FATAL_ERROR
      "analyze_smoke.cmake requires -DPART=per-file or -DPART=cross-file")
endif()
foreach(var ANALYZE CHECK ${inputs} OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "analyze_smoke.cmake requires -D${var}=...")
  endif()
  if(NOT var MATCHES "^OUT_DIR$" AND NOT EXISTS "${${var}}")
    message(FATAL_ERROR "analyze_smoke.cmake: ${var} ${${var}} does not exist")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

# Run ara_analyze with ARGN and fail unless it exits with `want`; the
# caller's checks read its stdout from `out`.
function(run_analyze want)
  execute_process(
    COMMAND "${ANALYZE}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL ${want})
    message(FATAL_ERROR
        "ara_analyze ${ARGN}: want exit ${want}, got ${rc}:\n${stdout}\n${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
endfunction()

# Run ara_analyze --json with ARGN (want exit 1) and fail unless its
# output is one strict JSON value.
function(check_json name)
  set(json_file "${OUT_DIR}/${name}.json")
  run_analyze(1 --json ${ARGN})
  file(WRITE "${json_file}" "${out}")
  execute_process(
    COMMAND "${CHECK}" "${json_file}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--json output is not valid JSON:\n${stdout}\n${stderr}")
  endif()
endfunction()

# Fail unless every id in ARGN appears in `text` as a "<file>:<line>: <id>: "
# finding; `what` names the run in the failure message.
function(expect_rules text what)
  foreach(rule ${ARGN})
    if(NOT text MATCHES ": ${rule}: ")
      message(FATAL_ERROR "'${rule}' missing from ${what}:\n${text}")
    endif()
  endforeach()
endfunction()

set(per_file_rules
    no-rand no-wall-clock no-unordered-iter no-raw-new-delete
    layering no-naked-lock bad-suppression)
set(cross_file_rules
    include-cycle transitive-layering stat-grammar stat-undocumented
    stat-phantom)

if(PART STREQUAL "per-file")
  # 1. The per-file fixture corpus fails the gate, every rule shows up by
  # id (plus stat-grammar, which owns the stat_naming.cc fixture).
  run_analyze(1 "${LINT_FIXTURES}")
  expect_rules("${out}" "fixture findings" ${per_file_rules} stat-grammar)

  # 2. A clean file passes.
  run_analyze(0 "${LINT_FIXTURES}/src/sim/clean.cc")

  # 3. allow() comments silence findings but stay visible in the summary.
  run_analyze(0 "${LINT_FIXTURES}/src/mem/suppressed.cc")
  if(NOT out MATCHES "3 suppressed")
    message(FATAL_ERROR "suppression count missing from summary:\n${out}")
  endif()

  # 4. --json output over the per-file corpus is one strict JSON value.
  check_json(lint_findings "${LINT_FIXTURES}")

  # 5. --list-rules names every per-file rule.
  run_analyze(0 --list-rules)
  set(listed_rules ${per_file_rules})
else()
  set(bad --doc "${FIXTURES}/bad/DESIGN.md" "${FIXTURES}/bad")

  # 1. The seeded bad/ twin fails the gate with every analysis by id.
  run_analyze(1 ${bad})
  expect_rules("${out}" "bad/ findings" ${cross_file_rules})

  # 2. The corrected good/ twin passes.
  run_analyze(0 --doc "${FIXTURES}/good/DESIGN.md" "${FIXTURES}/good")

  # 3. --json output over per-file and cross-file findings is one strict
  # JSON value.
  check_json(analyze_findings ${bad} "${LINT_FIXTURES}")

  # 4. --help prints the usage and exits 0.
  run_analyze(0 --help)
  if(NOT out MATCHES "^usage: ")
    message(FATAL_ERROR "ara_analyze --help printed no usage:\n${out}")
  endif()

  # 5. --list-rules names every analysis.
  run_analyze(0 --list-rules)
  set(listed_rules ${cross_file_rules})
endif()

foreach(rule ${listed_rules})
  if(NOT out MATCHES "(^|\n)${rule} ")
    message(FATAL_ERROR "--list-rules output lacks '${rule}':\n${out}")
  endif()
endforeach()

message(STATUS "analyze_smoke (${PART}): all CLI contract checks passed")
