# Exact-counter gate for the full seven-model lineup: simulate_cli
# --model all runs NV-DTC, DS-STC, RM-STC, GAMMA, SIGMA, Trapezoid and
# Uni-STC on small generated matrices, and its stdout plus the
# UNISTC_BENCH_JSON dump of every RunResult must match the committed
# goldens in bench/golden/fullline_smoke/ byte for byte. The cases
# cover SpGEMM at 50% density (dense tasks), SpGEMM at 2% (sparse
# tasks), SpMV (the N = 1 extent), SpMM (dense B blocks) and SpMSpV
# (the masked-popcount skip test), so every kernel is pinned on every
# model.
# Driven by ctest (see CMakeLists.txt):
#
#   cmake -DCLI=<simulate_cli> -DGOLDEN_DIR=<bench/golden/fullline_smoke> \
#         -DWORKDIR=<work dir> -P fullline_golden.cmake
#
# To regenerate after an intended model change, run each case below by
# hand with UNISTC_BENCH_JSON=<GOLDEN_DIR>/<case>.json and redirect
# stdout to <GOLDEN_DIR>/<case>.txt.

foreach(var CLI WORKDIR GOLDEN_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(run_case name kernel gen)
    set(ENV{UNISTC_BENCH_JSON} ${WORKDIR}/${name}.json)
    execute_process(
        COMMAND ${CLI} --kernel ${kernel} --gen ${gen} --model all
        OUTPUT_FILE ${WORKDIR}/${name}.txt
        ERROR_FILE ${WORKDIR}/${name}.err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${CLI} --kernel ${kernel} --gen ${gen} (${name}) "
                "exited with ${rc}")
    endif()
    foreach(ext txt json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${WORKDIR}/${name}.${ext} ${GOLDEN_DIR}/${name}.${ext}
            RESULT_VARIABLE differ)
        if(NOT differ EQUAL 0)
            message(FATAL_ERROR
                    "${name}.${ext} differs from the golden in "
                    "${GOLDEN_DIR}")
        endif()
    endforeach()
endfunction()

run_case(spgemm_random256_d50 spgemm random:256,0.5)
run_case(spgemm_random256_d2 spgemm random:256,0.02)
run_case(spmv_random256_d5 spmv random:256,0.05)
run_case(spmm_random256_d5 spmm random:256,0.05)
run_case(spmspv_random256_d5 spmspv random:256,0.05)

message(STATUS "all seven models reproduce the fullline_smoke goldens "
               "byte for byte")
