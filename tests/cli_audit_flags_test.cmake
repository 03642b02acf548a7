# gfor14-audit must reject malformed numeric flags instead of reading a
# prefix or dropping them: exit 2 with the usage line. A well-formed
# invocation on the same inputs must pass, so a rejection is the flag's.
#
#   cmake -DCLI=<gfor14_cli> -DAUDIT=<gfor14-audit> -DBASELINE=<BENCH_*.json>
#         -DWORK=<scratch dir> -P cli_audit_flags_test.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(
  COMMAND "${CLI}" channel --n 3 --kappa 2 --seed 1 --record "${WORK}/run.json"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "recording run failed (${rc})")
endif()

function(expect_exit name want)
  execute_process(
    COMMAND "${AUDIT}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${want}")
    message(FATAL_ERROR "${name}: gfor14-audit exited '${rc}', want ${want}\n${err}")
  endif()
  if(want EQUAL 2 AND NOT err MATCHES "usage: gfor14-audit")
    message(FATAL_ERROR "${name}: no usage line in:\n${err}")
  endif()
endfunction()

set(diff bench-diff "${BASELINE}" "${BASELINE}")
expect_exit(threshold_ok 0 ${diff} --threshold 75 --gate messages_per_sec=15)
expect_exit(threshold_junk 2 ${diff} --threshold 5x)
expect_exit(gate_without_value 2 ${diff} --threshold 75 --gate)
expect_exit(max_without_value 2 ${diff} --threshold 75 --max)
expect_exit(gate_junk 2 ${diff} --gate messages_per_sec=15x)

expect_exit(width_ok 0 waterfall "${WORK}/run.json" --width 12)
expect_exit(width_junk 2 waterfall "${WORK}/run.json" --width 12abc)
