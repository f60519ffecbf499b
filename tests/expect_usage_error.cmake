# Usage-error check for a command-line tool: runs PROGRAM with ARGS (one
# space-separated string), stdin at INPUT and stdout at OUTPUT, and passes
# only when it exits 2 and its stderr contains MESSAGE. INPUT defaults to
# /dev/null; without OUTPUT, stdout is discarded.
#
#   cmake -DPROGRAM=path -DARGS="--flag value" -DMESSAGE="text" \
#         [-DINPUT=file] [-DOUTPUT=file] -P this.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED INPUT)
  set(INPUT /dev/null)
endif()
if(DEFINED OUTPUT)
  set(output_option OUTPUT_FILE "${OUTPUT}")
else()
  set(output_option OUTPUT_QUIET)
endif()
execute_process(COMMAND "${PROGRAM}" ${args}
                INPUT_FILE "${INPUT}"
                ${output_option}
                ERROR_VARIABLE err
                RESULT_VARIABLE code)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "exit status '${code}', want 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${MESSAGE}':\n${err}")
endif()
