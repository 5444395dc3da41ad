# Runs `SIM [SUBCOMMAND] FLAG VALUE` and passes only when albatross_sim
# exits with a non-zero status and an `error: FLAG VALUE:` message on
# stderr. A crash (signal), a zero exit or a message that does not name
# the flag fails. Without SUBCOMMAND the single-pod run gets
# `--duration-ms 1` so an accepted value would finish at once.
#
#   cmake -DSIM=<albatross_sim> -DFLAG=--cores -DVALUE=0 -P cli_rejects.cmake
#   cmake -DSIM=<albatross_sim> -DSUBCOMMAND=fuzz -DFLAG=--seeds -DVALUE=0 \
#         -P cli_rejects.cmake
if(SUBCOMMAND)
  set(cmd ${SIM} ${SUBCOMMAND} ${FLAG} ${VALUE})
else()
  set(cmd ${SIM} ${FLAG} ${VALUE} --duration-ms 1)
endif()
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "${FLAG} ${VALUE}: expected a non-zero exit status, "
                      "got '${rc}'\n${out}${err}")
endif()
string(FIND "${err}" "error: ${FLAG} ${VALUE}:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: stderr does not name the flag:\n"
                      "${err}")
endif()
