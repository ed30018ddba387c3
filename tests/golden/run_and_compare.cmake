# Run a bench binary in --smoke --json mode and require its output to
# be byte-identical to a checked-in golden file. Used by the golden-*
# CTests (the pin table in bench/CMakeLists.txt): a change that moves
# any modeled number of a pinned figure fails them.
#
# Usage:
#   cmake -DBIN=<bench> -DOUT=<tmp.json> -DGOLDEN=<golden.json>
#         -P run_and_compare.cmake
execute_process(COMMAND ${BIN} --smoke --json ${OUT}
                RESULT_VARIABLE run_rc
                OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BIN} --smoke --json failed (rc=${run_rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from golden ${GOLDEN}")
endif()
