# Runs `${TOOL} ${ARGS}` and fails unless the tool exits with status 2 and
# prints a line starting with "error:" (and, when EXPECT is set, output
# matching that regex). A hang is cut off after 5 s.
#   cmake -DTOOL=<binary> -DARGS="sweep --step 0" -P expect_cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 5)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${out}${err}")
endif()
if(NOT "\n${out}${err}" MATCHES "\nerror: ")
  message(FATAL_ERROR "no 'error:' line in the output\n${out}${err}")
endif()
if(EXPECT AND NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}'\n${out}${err}")
endif()
