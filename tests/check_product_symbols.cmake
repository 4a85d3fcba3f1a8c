# Fails when a product library defines a symbol of a reference model
# (FunctionalTagger, TaggerSession, PredictiveParser, tagger::Lexer): those
# live in cfgtag_reference, which only tests, benches and examples link.
#
#   cmake -DNM=<nm> -DARCHIVES="<lib1.a>;<lib2.a>" -P check_product_symbols.cmake
set(pattern
    "cfgtag::tagger::(FunctionalTagger|TaggerSession|PredictiveParser|Lexer)([^A-Za-z0-9_]|$)")
set(failed FALSE)
foreach(archive IN LISTS ARCHIVES)
  execute_process(COMMAND ${NM} -C --defined-only ${archive}
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${archive}")
  endif()
  string(REPLACE "\n" ";" lines "${symbols}")
  set(hits 0)
  foreach(line IN LISTS lines)
    if(line MATCHES "${pattern}")
      math(EXPR hits "${hits} + 1")
      if(hits LESS_EQUAL 5)
        message("  ${line}")
      endif()
    endif()
  endforeach()
  if(hits GREATER 0)
    message("${archive}: ${hits} reference-model symbols defined")
    set(failed TRUE)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "product libraries define reference-model symbols")
endif()
