# End-to-end gate for the execution driver (src/driver/): the shared
# SweepRequest parser must resolve environment wiring (UNISTC_JOBS,
# UNISTC_BENCH_RESUME) exactly like the explicit flags, a checkpoint
# torn halfway through must resume to the serial output and heal into
# the full checkpoint, and the acceptance combo — --jobs 2 with
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

# --resume PATH and UNISTC_BENCH_RESUME=PATH: one run populates a
# checkpoint, then both spellings resume from a copy of it. The
# stderr INFORM proves the environment wiring actually engaged the
# checkpoint rather than passing vacuously.
run_bench(seed --resume ${WORKDIR}/flag.ck)
foreach(copy env.ck seed.ck)
    execute_process(COMMAND ${CMAKE_COMMAND} -E copy
                            ${WORKDIR}/flag.ck ${WORKDIR}/${copy})
endforeach()
run_bench(resume_flag --resume ${WORKDIR}/flag.ck)
set(ENV{UNISTC_BENCH_RESUME} ${WORKDIR}/env.ck)
run_bench(resume_env)
unset(ENV{UNISTC_BENCH_RESUME})
foreach(run resume_flag resume_env)
    file(READ ${WORKDIR}/${run}.err err)
    if(NOT err MATCHES "resuming from checkpoint")
        message(FATAL_ERROR
                "${run} did not resume from its checkpoint "
                "(stderr: ${err})")
    endif()
endforeach()
foreach(a txt json)
    expect_same(${WORKDIR}/resume_flag.${a} ${WORKDIR}/resume_env.${a}
                "--resume vs UNISTC_BENCH_RESUME (${a})")
endforeach()

# A run killed mid-sweep: keep the first half of the seed checkpoint's
# lines plus the first 40 bytes of the next one. --resume must repair
# the torn tail, print the serial stdout, and append the missing jobs
# so the healed file equals the full checkpoint. The bench JSON is not
# compared: a lineup served wholly from the checkpoint records no
# engine entry.
file(READ ${WORKDIR}/seed.ck seed_ck)
string(REGEX MATCHALL "\n" newlines "${seed_ck}")
list(LENGTH newlines n_lines)
math(EXPR keep "${n_lines} / 2")
set(cut 0)
foreach(i RANGE 1 ${keep})
    string(SUBSTRING "${seed_ck}" ${cut} -1 rest)
    string(FIND "${rest}" "\n" nl)
    math(EXPR cut "${cut} + ${nl} + 1")
endforeach()
math(EXPR cut "${cut} + 40")
string(SUBSTRING "${seed_ck}" 0 ${cut} torn_ck)
file(WRITE ${WORKDIR}/torn.ck "${torn_ck}")
run_bench(torn --resume ${WORKDIR}/torn.ck)
file(READ ${WORKDIR}/torn.err err)
if(NOT err MATCHES "repaired torn checkpoint")
    message(FATAL_ERROR
            "torn checkpoint was not repaired (stderr: ${err})")
endif()
expect_same(${WORKDIR}/torn.txt ${GOLDEN_DIR}/stdout_serial.txt
            "resume from a torn checkpoint vs serial golden")
expect_same(${WORKDIR}/torn.ck ${WORKDIR}/seed.ck
            "healed checkpoint vs the seed run's checkpoint")

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

message(STATUS "environment wiring matches explicit flags; a torn "
               "checkpoint resumes and heals; the jobs+warehouse "
               "combo reproduces the pre-refactor goldens byte for byte")
