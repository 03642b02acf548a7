# Replay must reject a recording whose config block holds a value the live
# parser would refuse (n outside [3, 32], receiver >= n, non-integral
# counts, an unknown attack, a malformed fault plan): exit 1 with a
# diagnostic naming the field before replay starts, not a crash or an
# attempt to run the bogus configuration.
#
#   cmake -DCLI=<gfor14_cli> -DWORK=<scratch dir> -P cli_replay_config_test.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(
  COMMAND "${CLI}" channel --n 3 --kappa 2 --seed 1 --record "${WORK}/good.json"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "recording run failed (${rc})")
endif()
file(READ "${WORK}/good.json" good)

function(expect_rejected name pattern replacement diagnostic)
  string(REGEX REPLACE "${pattern}" "${replacement}" bad "${good}")
  if(bad STREQUAL good)
    message(FATAL_ERROR "${name}: edit did not apply")
  endif()
  file(WRITE "${WORK}/${name}.json" "${bad}")
  execute_process(
    COMMAND "${CLI}" replay "${WORK}/${name}.json"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${name}: replay exited '${rc}', want 1\n${err}")
  endif()
  if(NOT err MATCHES "${diagnostic}")
    message(FATAL_ERROR "${name}: no '${diagnostic}' diagnostic in:\n${err}")
  endif()
  if(out MATCHES "replaying")
    message(FATAL_ERROR "${name}: replay started before the rejection:\n${out}")
  endif()
endfunction()

set(n_field "(\"command\": \"channel\",[ \n]*\"n\": )3")
expect_rejected(negative_n "${n_field}" "\\1-1" "config\\.n")
expect_rejected(huge_n "${n_field}" "\\11e12" "config\\.n must be in \\[3, 32\\]")
expect_rejected(fractional_n "${n_field}" "\\13.5" "config\\.n")
expect_rejected(receiver_out_of_range "(\"receiver\": )2" "\\13"
                "config\\.receiver 3 is out of range")
expect_rejected(kappa_zero "(\"kappa\": )2" "\\10" "config\\.kappa must be in")
# The recorded attack and fault plan are checked by the --attack and
# --faults flags' own handlers.
expect_rejected(attack_bogus "(\"attack\": )\"\"" "\\1\"bogus\""
                "unknown config\\.attack 'bogus'")
expect_rejected(faults_nonsense "(\"faults\": )\"\"" "\\1\"nonsense\""
                "invalid value for config\\.faults")

# Replay's trailing flags go through the live parser's strict rules: a
# value with trailing junk is rejected with a diagnostic naming the flag.
function(expect_flag_rejected name diagnostic)
  execute_process(
    COMMAND "${CLI}" replay "${WORK}/good.json" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${name}: replay exited '${rc}', want a nonzero code\n${err}")
  endif()
  if(NOT err MATCHES "${diagnostic}")
    message(FATAL_ERROR "${name}: no '${diagnostic}' diagnostic in:\n${err}")
  endif()
endfunction()

expect_flag_rejected(threads_junk "invalid value '2x' for --threads" --threads 2x)
expect_flag_rejected(threads_zero "--threads must be at least 1" --threads 0)
expect_flag_rejected(sample_every_junk "invalid value '3junk' for --sample-every"
                     --sample-every 3junk)
expect_flag_rejected(missing_value "--threads requires a value" --threads)
expect_flag_rejected(shape_flag "unknown option '--n'" --n 4)

# publish mounts --attack on party 0 exactly as channel does: the dense
# sender is disqualified, the other four inputs are published, and the
# recording (whose config names the attack) replays byte-identically.
execute_process(
  COMMAND "${CLI}" publish --n 5 --seed 7 --attack dense
          --record "${WORK}/publish_dense.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "publish_dense: exited '${rc}'\n${out}${err}")
endif()
foreach(pattern "party 0 is corrupt, mounting 'dense'" "PASS: P0=OUT P1=ok"
                "published \\(4\\):")
  if(NOT out MATCHES "${pattern}")
    message(FATAL_ERROR "publish_dense: no '${pattern}' in:\n${out}")
  endif()
endforeach()
execute_process(
  COMMAND "${CLI}" replay "${WORK}/publish_dense.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "replay verified")
  message(FATAL_ERROR "publish_dense replay: exited '${rc}'\n${out}${err}")
endif()
