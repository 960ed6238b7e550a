# Runs a command and fails unless it exits with an expected code and its
# combined stdout/stderr matches a regular expression -- for CLI tests
# that must check both, which PASS_REGULAR_EXPRESSION alone cannot (it
# ignores the exit code).
#
#   cmake -DCMD="<program> <args...>" -DEXPECT_CODE=2
#         -DEXPECT_REGEX="<regex>" -P expect_exit.cmake
separate_arguments(command UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
message("${output}")
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_CODE}")
endif()
if(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}'")
endif()
