# The E8 perf gate must block a synthetic regression. The fixture is built
# from the committed baseline: every wall_ms times 1.2 and every
# p2p_elements_per_sec times 0.8 (the same work, 20% slower).
# `gfor14-audit bench-diff --gate wall_ms=15,net.alloc.bytes=25` must exit
# 3 on it, and 0 on the baseline against itself, so the exit is the
# regression's.
#
#   cmake -DAUDIT=<gfor14-audit> -DBASELINE=<BENCH_E8_scaling.json>
#         -DWORK=<scratch dir> -P cli_bench_gate_test.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Multiplies every plain decimal value of "key" in the text held by
# `text_var` by mult/10, exactly: the value's digits times mult, with one
# more decimal place. Scaled values are marked '@' so that none is matched
# again; the caller strips the marks.
function(scale_key text_var key mult)
  set(text "${${text_var}}")
  string(REGEX MATCHALL "\"${key}\": [0-9]+\\.?[0-9]*[,\n}]" hits "${text}")
  if(NOT hits)
    message(FATAL_ERROR "no \"${key}\" values in ${BASELINE}")
  endif()
  list(REMOVE_DUPLICATES hits)
  foreach(hit IN LISTS hits)
    string(REGEX MATCH "([0-9]+)\\.?([0-9]*)(.)$" _ "${hit}")
    set(end "${CMAKE_MATCH_3}")
    string(LENGTH "${CMAKE_MATCH_2}" places)
    math(EXPR places "${places} + 1")
    string(REGEX REPLACE "^0+([0-9])" "\\1" digits
                         "${CMAKE_MATCH_1}${CMAKE_MATCH_2}")
    math(EXPR digits "${digits} * ${mult}")
    string(LENGTH "${digits}" len)
    while(NOT len GREATER places)
      string(PREPEND digits "0")
      math(EXPR len "${len} + 1")
    endwhile()
    math(EXPR cut "${len} - ${places}")
    string(SUBSTRING "${digits}" 0 ${cut} whole)
    string(SUBSTRING "${digits}" ${cut} -1 fraction)
    string(REPLACE "${hit}" "\"${key}\": @${whole}.${fraction}${end}" text
                   "${text}")
  endforeach()
  set(${text_var} "${text}" PARENT_SCOPE)
endfunction()

file(READ "${BASELINE}" text)
scale_key(text wall_ms 12)
scale_key(text p2p_elements_per_sec 8)
string(REPLACE "\": @" "\": " text "${text}")
file(WRITE "${WORK}/regressed.json" "${text}")

function(expect_gate name want candidate)
  execute_process(
    COMMAND "${AUDIT}" bench-diff "${BASELINE}" "${candidate}"
            --gate wall_ms=15,net.alloc.bytes=25
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${want}")
    message(FATAL_ERROR "${name}: bench-diff exited '${rc}', want ${want}\n${out}${err}")
  endif()
endfunction()

expect_gate(baseline_passes 0 "${BASELINE}")
expect_gate(regression_blocks 3 "${WORK}/regressed.json")
