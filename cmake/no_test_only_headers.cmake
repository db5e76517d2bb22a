# Test-only-code gate: every header under src/ must be included by
# some file that ships (src/, bench/, examples/, perfbench/src/ or
# fuzz/) other than its own .cc. A header only tests include is a
# test helper living in the simulator library; move it into tests/
# or delete it with its tests.
# Driven by ctest (see the top-level CMakeLists.txt):
#
#   cmake -DREPO=<source dir> -P cmake/no_test_only_headers.cmake

cmake_minimum_required(VERSION 3.16) # if(IN_LIST)

if(NOT DEFINED REPO)
    message(FATAL_ERROR "REPO is required")
endif()

# Headers allowed to be test-only, each with the reason it stays.
set(exceptions
    # Read-back oracle of the warehouse writer's tests; goes when the
    # writer does.
    warehouse/reader.hh)

file(GLOB_RECURSE headers RELATIVE ${REPO}/src ${REPO}/src/*.hh)
if(NOT headers)
    message(FATAL_ERROR "no headers found under src/")
endif()
list(SORT headers)

set(includers)
foreach(dir src bench examples perfbench/src fuzz)
    file(GLOB_RECURSE found ${REPO}/${dir}/*.hh ${REPO}/${dir}/*.cc)
    list(APPEND includers ${found})
endforeach()

# Every header some shipped file includes, not counting a header's
# own .cc.
set(used)
foreach(f ${includers})
    file(STRINGS ${f} lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line ${lines})
        string(REGEX REPLACE ".*include[ \t]*\"([^\"]+)\".*" "\\1"
               inc "${line}")
        string(REGEX REPLACE "\\.hh$" ".cc" own "${REPO}/src/${inc}")
        if(NOT f STREQUAL own)
            list(APPEND used ${inc})
        endif()
    endforeach()
endforeach()

set(offenders)
foreach(h ${headers})
    if(NOT h IN_LIST used AND NOT h IN_LIST exceptions)
        list(APPEND offenders ${h})
    endif()
endforeach()
foreach(h ${exceptions})
    if(NOT EXISTS ${REPO}/src/${h} OR h IN_LIST used)
        list(APPEND offenders "${h} (listed as an exception; drop it)")
    endif()
endforeach()

if(offenders)
    list(JOIN offenders "\n  " report)
    message(FATAL_ERROR
            "src/ headers that no shipped file includes:\n  ${report}\n"
            "move test helpers into tests/ or delete them")
endif()
list(LENGTH headers count)
message(STATUS "all ${count} src/ headers are included outside tests/")
