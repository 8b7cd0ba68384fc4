# Runs one binary and checks how it exits, for smoke entries whose pass
# condition is not exit 0 (see CMakeLists.txt):
#
#   cmake -DBIN=<exe> -DARGS=a,b -DRC=<code> -DSTDERR=s1,s2
#         -P expect_exit.cmake
#
# ARGS are the program's arguments, comma-separated. The run passes when
# it exits with RC and writes exactly one stderr line, which contains
# every comma-separated string of STDERR.
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "${BIN} ${args}: exit ${rc}, want ${RC}\nstderr: ${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1)
  message(FATAL_ERROR "${BIN} ${args}: ${lines} stderr lines, want 1:\n${err}")
endif()
string(REPLACE "," ";" wanted "${STDERR}")
foreach(piece IN LISTS wanted)
  string(FIND "${err}" "${piece}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${BIN} ${args}: stderr lacks '${piece}':\n${err}")
  endif()
endforeach()
