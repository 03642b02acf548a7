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
expect_exit(width_zero 2 waterfall "${WORK}/run.json" --width 0)
expect_exit(width_exponent 2 waterfall "${WORK}/run.json" --width 1e3)
expect_exit(width_huge 2 waterfall "${WORK}/run.json" --width 1000000)

# Decimal flags take finite decimals only: no NaN, infinity or hex float.
expect_exit(threshold_nan 2 ${diff} --threshold nan)
expect_exit(threshold_inf 2 ${diff} --threshold inf)
expect_exit(threshold_overflow 2 ${diff} --threshold 1e999)
expect_exit(threshold_hex 2 ${diff} --threshold 0x10)
expect_exit(threshold_space 2 ${diff} --threshold " 75")
expect_exit(gate_nan 2 ${diff} --gate messages_per_sec=nan)
expect_exit(max_inf 2 ${diff} --max wall_ms=inf)

# gfor14_cli reads its decimal (SLO) flags with the same parser. A NaN
# target would compare false against every bound and pass unchecked.
function(expect_cli_rejected name flag value)
  execute_process(
    COMMAND "${CLI}" serve --n 3 --sessions 1 ${flag} ${value}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${name}: gfor14_cli exited '${rc}', want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "invalid value '${value}' for ${flag}")
    message(FATAL_ERROR "${name}: no diagnostic naming ${flag} in:\n${err}")
  endif()
endfunction()

expect_cli_rejected(retry_rate_nan --slo-max-retry-rate nan)
expect_cli_rejected(min_honest_nan --slo-min-honest nan)
expect_cli_rejected(min_mps_inf --slo-min-mps inf)
expect_cli_rejected(round_wall_overflow --slo-round-wall-p95 1e999)
expect_cli_rejected(round_wall_hex --slo-round-wall-p95 0x10)
expect_cli_rejected(retry_rate_negative --slo-max-retry-rate -0.5)

# GFOR14_FAULT_SEED is read whole, like every numeric flag: a non-number or
# trailing junk exits 2 naming the variable instead of running seed 0 or 12.
function(expect_fault_seed_env name value want)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "GFOR14_FAULT_SEED=${value}"
            "${CLI}" channel --n 3 --kappa 2 --faults "drop@1:0->2"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "${name}: gfor14_cli exited '${rc}', want ${want}\n${out}${err}")
  endif()
  if(want EQUAL 0 AND NOT out MATCHES "GFOR14_FAULT_SEED=${value}\n")
    message(FATAL_ERROR "${name}: the run did not use seed ${value}:\n${out}")
  endif()
  if(want EQUAL 2 AND NOT err MATCHES "invalid value '${value}' for GFOR14_FAULT_SEED")
    message(FATAL_ERROR "${name}: no diagnostic naming GFOR14_FAULT_SEED in:\n${err}")
  endif()
endfunction()

expect_fault_seed_env(fault_seed_env_ok 12 0)
expect_fault_seed_env(fault_seed_env_junk abc 2)
expect_fault_seed_env(fault_seed_env_suffix 12abc 2)

# The live --attack flag checks its value while parsing: an unknown name
# exits 2 before any network is built (nothing on stdout).
execute_process(
  COMMAND "${CLI}" channel --n 3 --kappa 2 --attack bogus
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown --attack 'bogus'")
  message(FATAL_ERROR "attack_bogus: gfor14_cli exited '${rc}', want 2 naming --attack\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "attack_bogus: the run started before the rejection:\n${out}")
endif()
