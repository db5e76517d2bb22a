# Determinism gate for the simulator: no source file under src/ may
# read a wall clock. The simulator's outputs are pure functions of its
# inputs, and per-layer wall time is measured from outside src/
# (perfbench's spans), so a clock read here is either dead weight in
# a hot loop or a source of run-to-run drift, and no wall-clock
# timeout belongs in the driver.
# Driven by ctest (see the top-level CMakeLists.txt):
#
#   cmake -DREPO=<source dir> -P cmake/no_clock_in_core.cmake

if(NOT DEFINED REPO)
    message(FATAL_ERROR "REPO is required")
endif()

set(clock_regex
    "<chrono>|steady_clock|system_clock|high_resolution_clock|clock_gettime")

file(GLOB_RECURSE files RELATIVE ${REPO}
     ${REPO}/src/*.hh ${REPO}/src/*.cc)
if(NOT files)
    message(FATAL_ERROR "no source files found under src/")
endif()
list(SORT files)
list(LENGTH files count)

set(offenders)
foreach(f ${files})
    file(STRINGS ${REPO}/${f} hits REGEX "${clock_regex}")
    foreach(line ${hits})
        string(REGEX MATCH "${clock_regex}" what "${line}")
        list(APPEND offenders "${f}: ${what}")
    endforeach()
endforeach()

if(offenders)
    list(JOIN offenders "\n  " report)
    message(FATAL_ERROR
            "wall-clock reads under src/:\n  ${report}\n"
            "time layers from outside src/ (perfbench) instead")
endif()
message(STATUS "${count} files under src/ read no clock")
