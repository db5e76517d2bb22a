# Determinism gate for the simulator core: no source file under the
# directories below may read a wall clock. The simulator's outputs are
# pure functions of its inputs, and per-layer wall time is measured
# from outside src/ (perfbench's spans), so a clock read here is
# either dead weight in a hot loop or a source of run-to-run drift.
# The infrastructure layers are exempt: exec/ (the sweep watchdog),
# cache/, driver/, robust/, obs/ and warehouse/.
# Driven by ctest (see the top-level CMakeLists.txt):
#
#   cmake -DREPO=<source dir> -P cmake/no_clock_in_core.cmake

if(NOT DEFINED REPO)
    message(FATAL_ERROR "REPO is required")
endif()

set(core_dirs common sparse kernels bbc sim stc unistc isa sm engine
              runner corpus apps)
set(clock_regex
    "<chrono>|steady_clock|system_clock|high_resolution_clock|clock_gettime")

set(files)
foreach(dir ${core_dirs})
    if(NOT IS_DIRECTORY ${REPO}/src/${dir})
        message(FATAL_ERROR "src/${dir} does not exist")
    endif()
    file(GLOB_RECURSE found RELATIVE ${REPO}
         ${REPO}/src/${dir}/*.hh ${REPO}/src/${dir}/*.cc)
    list(APPEND files ${found})
endforeach()
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
            "wall-clock reads in the simulator core:\n  ${report}\n"
            "time layers from outside src/ (perfbench) instead")
endif()
message(STATUS "${count} simulator-core files read no clock")
