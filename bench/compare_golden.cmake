# Run one figure, ablation or example binary and require exit 0 and
# a standard output equal, byte for byte, to its committed golden
# (docs/TESTING.md "Golden figure outputs"):
#
#   cmake -DBIN=<binary> -DGOLDEN=<expected> -DOUT=<actual> \
#         -P compare_golden.cmake
#
# The caller's environment passes through to the binary, so the test
# pins CENJU_QUICK and the backend variables itself.
execute_process(COMMAND ${BIN} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE differs)
if(differs)
    file(READ ${OUT} actual)
    message(FATAL_ERROR
        "stdout of ${BIN} differs from ${GOLDEN}; it printed:\n"
        "${actual}")
endif()
