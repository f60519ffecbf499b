# Usage-error check for a command-line tool: runs PROGRAM with ARGS (one
# space-separated string) and stdin at /dev/null, and passes only when it
# exits 2 and its stderr contains MESSAGE.
#
#   cmake -DPROGRAM=path -DARGS="--flag value" -DMESSAGE="text" -P this.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                INPUT_FILE /dev/null
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE code)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "exit status '${code}', want 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${MESSAGE}':\n${err}")
endif()
