# Run a tool in --smoke --json mode and validate its stdout against
# docs/metrics_schema.json (the metrics-schema CTests).
#
# Usage:
#   cmake -DBIN=<tool> -DOUT=<tmp.json> -DPYTHON=<python3>
#         -DCHECKER=<check_metrics_schema.py> -DSCHEMA=<schema.json>
#         [-DARGS="<extra tool arguments>"] -P check_schema.cmake
separate_arguments(extra_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} --smoke ${extra_args} --json
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
            "${BIN} --smoke ${ARGS} --json failed (rc=${run_rc})")
endif()
execute_process(COMMAND ${PYTHON} ${CHECKER} ${SCHEMA} ${OUT}
                RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR "${OUT} violates ${SCHEMA}")
endif()
