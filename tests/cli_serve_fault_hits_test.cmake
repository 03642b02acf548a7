# Every fault a `serve --faulty` session plan schedules must hit traffic:
# records 8 faulty sessions and fails on any `hit=0` event in
# `gfor14-audit blame` over the recordings.
#
#   cmake -DCLI=<gfor14_cli> -DAUDIT=<gfor14-audit> -DWORK=<dir>
#         -P cli_serve_fault_hits_test.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

execute_process(
  COMMAND "${CLI}" serve --n 5 --sessions 8 --faulty 8 --seed 1
          --record-dir "${WORK}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve: exited '${rc}'\n${out}${err}")
endif()

set(events 0)
foreach(id RANGE 7)
  set(recording "${WORK}/session-${id}.recording")
  execute_process(
    COMMAND "${AUDIT}" blame "${recording}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "blame session-${id}: exited '${rc}'\n${out}${err}")
  endif()
  if(out MATCHES "hit=0 ")
    message(FATAL_ERROR "session-${id}: a fault hit nothing:\n${out}")
  endif()
  string(REGEX MATCHALL "hit=[0-9]+" hits "${out}")
  list(LENGTH hits count)
  math(EXPR events "${events} + ${count}")
endforeach()

# Three faults per session plan, each logged once.
if(NOT events EQUAL 24)
  message(FATAL_ERROR "expected 24 fault events over 8 sessions, got ${events}")
endif()
# The full-payload recordings take ~55 MB each.
file(REMOVE_RECURSE "${WORK}")
