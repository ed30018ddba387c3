# Run a bench binary in --smoke --json mode and require its output to
# be byte-identical to a checked-in golden file. Used by the
# golden-fig16/golden-fig20 CTests to pin the promise that the
# observability redesign (with tracing disabled, the default) changes
# no measured byte of the figure pipeline.
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
