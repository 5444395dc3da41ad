# Runs `SIM FLAG VALUE` and passes only when albatross_sim exits with a
# non-zero status and an `error: FLAG ...` message on stderr. A crash
# (signal), a zero exit or a message that does not name the flag fails.
#
#   cmake -DSIM=<albatross_sim> -DFLAG=--cores -DVALUE=0 -P cli_rejects.cmake
execute_process(COMMAND ${SIM} ${FLAG} ${VALUE} --duration-ms 1
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
