# Fails when one of FILES (static archives or linked binaries) defines a
# symbol whose `nm -C` line matches PATTERN; the whole line is matched,
# parameter list included (a pattern anchored as ^[^(]* reads only the
# name before it). The ctests in CMakeLists.txt use it to keep the
# reference models out of the product libraries and the hardware
# generator out of binaries that only compile and tag.
#
#   cmake -DNM=<nm> "-DPATTERN=<regex>" "-DFILES=<a>;<b>" \
#         -P check_product_symbols.cmake
if(NOT NM OR NOT PATTERN OR NOT FILES)
  message(FATAL_ERROR "usage: -DNM=<nm> -DPATTERN=<regex> -DFILES=<files>")
endif()
set(failed FALSE)
foreach(file IN LISTS FILES)
  execute_process(COMMAND ${NM} -C --defined-only ${file}
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${file}")
  endif()
  # Square brackets and semicolons confuse CMake's list splitting; no
  # pattern needs them.
  string(REPLACE "[" "<" symbols "${symbols}")
  string(REPLACE "]" ">" symbols "${symbols}")
  string(REPLACE ";" ":" symbols "${symbols}")
  # Nor should an anonymous namespace end a name the way "(" does.
  string(REPLACE "(anonymous namespace)" "{anonymous}" symbols "${symbols}")
  string(REPLACE "\n" ";" lines "${symbols}")
  set(hits 0)
  foreach(line IN LISTS lines)
    if(line MATCHES "${PATTERN}")
      math(EXPR hits "${hits} + 1")
      if(hits LESS_EQUAL 5)
        message("  ${line}")
      endif()
    endif()
  endforeach()
  if(hits GREATER 0)
    message("${file}: ${hits} defined symbols match ${PATTERN}")
    set(failed TRUE)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "symbols matching ${PATTERN} are defined")
endif()
