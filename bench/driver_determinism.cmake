# End-to-end gate for the execution driver (src/driver/): the shared
# SweepRequest parser must resolve UNISTC_JOBS exactly like the
# explicit --jobs flag, and the acceptance combo — --jobs 2 with
# warehouse mirroring — must reproduce the committed pre-refactor
# goldens (bench/golden/tab08_smoke) byte for byte: stdout, the
# UNISTC_BENCH_JSON dump and every warehouse row file.
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

function(run_bench prefix)
    set(ENV{UNISTC_BENCH_JSON} ${WORKDIR}/${prefix}.json)
    execute_process(
        COMMAND ${BENCH} --smoke ${ARGN}
        OUTPUT_FILE ${WORKDIR}/${prefix}.txt
        ERROR_FILE ${WORKDIR}/${prefix}.err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${BENCH} --smoke ${ARGN} (${prefix}) exited "
                "with ${rc}")
    endif()
endfunction()

function(expect_same a b what)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
        RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        message(FATAL_ERROR "${what}: ${a} and ${b} differ")
    endif()
endfunction()

# --jobs 2 and UNISTC_JOBS=2 must land on the same request.
run_bench(jobs_flag --jobs 2)
set(ENV{UNISTC_JOBS} 2)
run_bench(jobs_env)
unset(ENV{UNISTC_JOBS})
foreach(a txt json)
    expect_same(${WORKDIR}/jobs_flag.${a} ${WORKDIR}/jobs_env.${a}
                "--jobs 2 vs UNISTC_JOBS=2 (${a})")
endforeach()

# The acceptance combo against the committed pre-refactor goldens: the
# run fans out over two worker threads with the warehouse mirroring
# on.
set(ENV{UNISTC_WAREHOUSE_DIR} ${WORKDIR}/wh)
run_bench(combo --jobs 2)
unset(ENV{UNISTC_WAREHOUSE_DIR})

expect_same(${WORKDIR}/combo.txt ${GOLDEN_DIR}/stdout.txt
            "combo stdout vs pre-refactor golden")
expect_same(${WORKDIR}/combo.json ${GOLDEN_DIR}/bench.json
            "combo bench JSON vs pre-refactor golden")
file(GLOB rows RELATIVE ${GOLDEN_DIR}/warehouse
     ${GOLDEN_DIR}/warehouse/*)
foreach(f ${rows})
    expect_same(${WORKDIR}/wh/000001/${f} ${GOLDEN_DIR}/warehouse/${f}
                "warehouse row file ${f} vs pre-refactor golden")
endforeach()

message(STATUS "UNISTC_JOBS matches --jobs; the jobs+warehouse combo "
               "reproduces the pre-refactor goldens byte for byte")
