# Exact-counter gate for the full seven-model lineup: simulate_cli
# --model all runs NV-DTC, DS-STC, RM-STC, GAMMA, SIGMA, Trapezoid and
# Uni-STC on small generated matrices, and its stdout plus the
# UNISTC_BENCH_JSON dump of every RunResult must match the committed
# goldens in bench/golden/fullline_smoke/ byte for byte. The cases
# cover SpGEMM at 50% density (dense tasks), SpGEMM at 2% (sparse
# tasks), SpMV (the N = 1 extent), SpMM (dense B blocks) and SpMSpV
# (the masked-popcount skip test), so every kernel is pinned on every
# model. The SpGEMM 50% and 2% and the SpMV cases run again at fp32,
# where NV-DTC counts 8-row slices, SIGMA streams 8 columns per cycle
# and Trapezoid picks between its fp32 modes (16x4x2 and 8x4x4). One
# more case runs an --arch lineup at fp32 with 16 DPGs and also pins
# its --stats-json file: the engine.* counters of the shared task
# stream and the machine-config stats. The SpMM case runs once more
# with --trace: a traced model simulates every repeat of an SpMM task
# that an untraced one counts without simulating, so its bench JSON
# must equal the untraced golden. Its stdout gains a "Trace:" line,
# so only the JSON is compared.
# Driven by ctest (see CMakeLists.txt):
#
#   cmake -DCLI=<simulate_cli> -DGOLDEN_DIR=<bench/golden/fullline_smoke> \
#         -DWORKDIR=<work dir> -P fullline_golden.cmake
#
# To regenerate after an intended model change, run each case below by
# hand from the golden directory with
# UNISTC_BENCH_JSON=<GOLDEN_DIR>/<case>.json and redirect stdout to
# <GOLDEN_DIR>/<case>.txt.

foreach(var CLI WORKDIR GOLDEN_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# Fail unless WORKDIR/<file> matches GOLDEN_DIR/<file> byte for byte.
function(expect_golden file)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/${file} ${GOLDEN_DIR}/${file}
        RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        message(FATAL_ERROR
                "${file} differs from the golden in ${GOLDEN_DIR}")
    endif()
endfunction()

# run_cli(<case> <simulate_cli args>...): run from WORKDIR, so relative
# output paths echoed on stdout stay the same on every machine, and
# pin stdout and the bench JSON dump.
function(run_cli name)
    set(ENV{UNISTC_BENCH_JSON} ${WORKDIR}/${name}.json)
    execute_process(
        COMMAND ${CLI} ${ARGN}
        WORKING_DIRECTORY ${WORKDIR}
        OUTPUT_FILE ${WORKDIR}/${name}.txt
        ERROR_FILE ${WORKDIR}/${name}.err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        string(REPLACE ";" " " args "${ARGN}")
        message(FATAL_ERROR
                "${CLI} ${args} (${name}) exited with ${rc}")
    endif()
    expect_golden(${name}.txt)
    expect_golden(${name}.json)
endfunction()

function(run_case name kernel gen)
    run_cli(${name} --kernel ${kernel} --gen ${gen} --model all ${ARGN})
endfunction()

run_case(spgemm_random256_d50 spgemm random:256,0.5)
run_case(spgemm_random256_d2 spgemm random:256,0.02)
run_case(spmv_random256_d5 spmv random:256,0.05)
run_case(spmm_random256_d5 spmm random:256,0.05)
run_case(spmspv_random256_d5 spmspv random:256,0.05)
run_case(spgemm_random256_d50_fp32 spgemm random:256,0.5 --precision fp32)
run_case(spgemm_random256_d2_fp32 spgemm random:256,0.02 --precision fp32)
run_case(spmv_random256_d5_fp32 spmv random:256,0.05 --precision fp32)
# The traced SpMM run: bench JSON only, against the untraced golden.
set(ENV{UNISTC_BENCH_JSON} ${WORKDIR}/spmm_random256_d5_traced.json)
execute_process(
    COMMAND ${CLI} --kernel spmm --gen random:256,0.05 --model all
            --trace spmm_random256_d5.trace.json
    WORKING_DIRECTORY ${WORKDIR}
    OUTPUT_FILE ${WORKDIR}/spmm_random256_d5_traced.txt
    ERROR_FILE ${WORKDIR}/spmm_random256_d5_traced.err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traced SpMM run exited with ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/spmm_random256_d5_traced.json
            ${GOLDEN_DIR}/spmm_random256_d5.json
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "the traced SpMM run's bench JSON differs from "
                        "spmm_random256_d5.json in ${GOLDEN_DIR}")
endif()

run_cli(spgemm_banded512_lineup --kernel spgemm
        --arch DS-STC,RM-STC,Uni-STC --gen banded:512,8,0.4
        --precision fp32 --dpgs 16
        --stats-json spgemm_banded512_lineup.stats.json)
expect_golden(spgemm_banded512_lineup.stats.json)

message(STATUS "all seven models reproduce the fullline_smoke goldens "
               "byte for byte")
