# Exact-output gate for the bench harnesses: each bench below, run
# with --smoke, must print the committed stdout in bench/golden/smoke/
# byte for byte. The list starts with the benches that drive Uni-STC's
# TMS and SDPU and that no other golden pins: the two ordering studies
# (the only users of the dot-product, row-row and non-adaptive
# orders), the fill-order and gating ablations, the Fig. 14 case study,
# the Fig. 22 DPG sweep and the DNN end-to-end study (UWMMA bundles).
# Driven by ctest (see CMakeLists.txt):
#
#   cmake -DBENCH_DIR=<build>/bench -DGOLDEN_DIR=<bench/golden/smoke> \
#         -DWORKDIR=<work dir> -P smoke_golden.cmake
#
# To regenerate after an intended model change, run
# `<bench> --smoke > <GOLDEN_DIR>/<bench>.txt` for each bench below.

foreach(var BENCH_DIR WORKDIR GOLDEN_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
unset(ENV{UNISTC_BENCH_JSON})

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

# run_bench(<bench>): run `<bench> --smoke` from WORKDIR and pin its
# stdout.
function(run_bench name)
    execute_process(
        COMMAND ${BENCH_DIR}/${name} --smoke
        WORKING_DIRECTORY ${WORKDIR}
        OUTPUT_FILE ${WORKDIR}/${name}.txt
        ERROR_FILE ${WORKDIR}/${name}.err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} --smoke exited with ${rc}")
    endif()
    expect_golden(${name}.txt)
endfunction()

run_bench(bench_fig10_ordering)
run_bench(bench_abl_ordering)
run_bench(bench_abl_fillorder)
run_bench(bench_abl_gating)
run_bench(bench_fig14_casestudy)
run_bench(bench_fig22_eed)
run_bench(bench_ext_dnn_e2e)

message(STATUS "every bench reproduces its bench/golden/smoke stdout "
               "byte for byte")
