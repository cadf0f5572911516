# Runs one binary and compares its stdout byte for byte with a golden file.
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P run_golden.cmake
# On a mismatch the actual output is left in ACTUAL and the first
# differing line is printed.
execute_process(COMMAND ${BIN}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  string(REPLACE "\n" ";" want_lines "${expected}")
  string(REPLACE "\n" ";" got_lines "${actual}")
  list(LENGTH want_lines n_want)
  list(LENGTH got_lines n_got)
  set(i 0)
  while(i LESS n_want AND i LESS n_got)
    list(GET want_lines ${i} w)
    list(GET got_lines ${i} g)
    if(NOT w STREQUAL g)
      break()
    endif()
    math(EXPR i "${i} + 1")
  endwhile()
  set(first "")
  if(i LESS n_want)
    list(GET want_lines ${i} first)
  endif()
  set(second "")
  if(i LESS n_got)
    list(GET got_lines ${i} second)
  endif()
  math(EXPR line "${i} + 1")
  message(FATAL_ERROR
    "stdout differs from ${GOLDEN} at line ${line}\n"
    "  expected: ${first}\n"
    "  actual:   ${second}\n"
    "full output: ${ACTUAL}")
endif()
