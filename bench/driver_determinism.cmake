# End-to-end gate for the execution driver (src/driver/) on tab08: a
# --smoke run must reproduce the committed goldens
# (bench/golden/tab08_smoke) byte for byte — stdout and the
# UNISTC_BENCH_JSON dump.
# Driven by ctest (see CMakeLists.txt):
#
#   cmake -DBENCH=<binary> -DGOLDEN_DIR=<bench/golden/tab08_smoke> \
#         -DWORKDIR=<scratch dir> -P driver_determinism.cmake

foreach(var BENCH WORKDIR GOLDEN_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(expect_same a b what)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
        RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        message(FATAL_ERROR "${what}: ${a} and ${b} differ")
    endif()
endfunction()

set(ENV{UNISTC_BENCH_JSON} ${WORKDIR}/serial.json)
execute_process(
    COMMAND ${BENCH} --smoke
    OUTPUT_FILE ${WORKDIR}/serial.txt
    ERROR_FILE ${WORKDIR}/serial.err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --smoke exited with ${rc}")
endif()

expect_same(${WORKDIR}/serial.txt ${GOLDEN_DIR}/stdout.txt
            "stdout vs golden")
expect_same(${WORKDIR}/serial.json ${GOLDEN_DIR}/bench.json
            "bench JSON vs golden")

message(STATUS "tab08 reproduces its goldens byte for byte")
