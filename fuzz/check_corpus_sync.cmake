# Corpus-sync check, run as ctest fuzz_corpus_in_sync:
#
#   cmake -DGEN=<fuzz_gen_seeds> -DCORPUS=<fuzz/corpus> -DOUT=<scratch dir>
#         -P check_corpus_sync.cmake
#
# Regenerates the corpus into OUT and fails if a generated file is
# missing from CORPUS or differs from it, or if CORPUS holds a seed-*
# file the generator no longer writes. Hand-minimized crasher-* files
# that the generator does not write are allowed. Fix a failure by
# running `fuzz_gen_seeds fuzz/corpus` and deleting the stale seeds.
cmake_minimum_required(VERSION 3.16)

foreach(var GEN CORPUS OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_corpus_sync.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${GEN}" "${OUT}" OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${GEN} failed: ${rc}")
endif()

set(problems "")
file(GLOB_RECURSE generated RELATIVE "${OUT}" "${OUT}/*")
foreach(f IN LISTS generated)
  if(NOT EXISTS "${CORPUS}/${f}")
    list(APPEND problems "missing from the corpus: ${f}")
    continue()
  endif()
  file(SHA256 "${OUT}/${f}" want)
  file(SHA256 "${CORPUS}/${f}" have)
  if(NOT want STREQUAL have)
    list(APPEND problems "differs from the generator: ${f}")
  endif()
endforeach()

file(GLOB_RECURSE committed RELATIVE "${CORPUS}" "${CORPUS}/*")
foreach(f IN LISTS committed)
  get_filename_component(name "${f}" NAME)
  if(name MATCHES "^seed-" AND NOT f IN_LIST generated)
    list(APPEND problems "stale seed (not generated): ${f}")
  endif()
endforeach()

if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR "fuzz corpus out of sync with fuzz_gen_seeds:\n  "
                      "${report}")
endif()
list(LENGTH generated n)
message(STATUS "fuzz corpus in sync: ${n} generated files match")
