# Run a program and fail unless it exits with the expected code:
#
#   cmake -DPROGRAM=<path> "-DARGS=<args>" -DEXPECT=<code> -P expect_exit.cmake
#
# The program is killed after 5 s, so one that never exits fails
# instead of hanging the suite.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} RESULT_VARIABLE rc TIMEOUT 5)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: expected exit ${EXPECT}, got '${rc}'")
endif()
