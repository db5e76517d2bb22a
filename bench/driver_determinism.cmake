# End-to-end gate for the execution driver (src/driver/) on tab08: a
# serial run and a --jobs 2 run must both reproduce the committed
# goldens (bench/golden/tab08_smoke) byte for byte — stdout and the
# UNISTC_BENCH_JSON dump — and the shared SweepRequest parser must
# resolve UNISTC_JOBS=2 exactly like the explicit --jobs 2 flag.
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

run_bench(serial)
run_bench(jobs_flag --jobs 2)
set(ENV{UNISTC_JOBS} 2)
run_bench(jobs_env)
unset(ENV{UNISTC_JOBS})

# Serial and two workers against the goldens.
foreach(run serial jobs_flag)
    expect_same(${WORKDIR}/${run}.txt ${GOLDEN_DIR}/stdout.txt
                "${run} stdout vs golden")
    expect_same(${WORKDIR}/${run}.json ${GOLDEN_DIR}/bench.json
                "${run} bench JSON vs golden")
endforeach()

# --jobs 2 and UNISTC_JOBS=2 must land on the same request.
foreach(a txt json)
    expect_same(${WORKDIR}/jobs_flag.${a} ${WORKDIR}/jobs_env.${a}
                "--jobs 2 vs UNISTC_JOBS=2 (${a})")
endforeach()

message(STATUS "serial and --jobs 2 reproduce the tab08 goldens byte "
               "for byte; UNISTC_JOBS matches --jobs")
