# Runs one tool invocation that must be refused: it has to exit 2 and print
# an error matching EXPECT. Used by the tool_cli_* ctest entries.
#
#   cmake -DTOOL=<binary> -DARGS="--a=1;--b=2" -DEXPECT=<regex> -P <this file>

execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${status}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not match '${EXPECT}':\n${err}")
endif()
