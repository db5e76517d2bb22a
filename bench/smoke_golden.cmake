# Exact-output gate for the bench harnesses: each bench below, run
# with --smoke, must print the committed stdout in bench/golden/smoke/
# byte for byte, and a bench marked JSON must also write the committed
# UNISTC_BENCH_JSON dump. The list starts with the benches that drive
# Uni-STC's TMS and SDPU: the two ordering studies (the only users of
# the dot-product, row-row and non-adaptive orders), the fill-order
# and gating ablations, the Fig. 14 case study, the Fig. 22 DPG sweep
# and the DNN end-to-end study (UWMMA bundles). Every other
# deterministic bench follows; bench_tab08_suitesparse has its own
# goldens (golden/tab08_smoke/) and bench_ext_conversion measures
# wall time.
# Driven by ctest (see CMakeLists.txt):
#
#   cmake -DBENCH_DIR=<build>/bench -DGOLDEN_DIR=<bench/golden/smoke> \
#         -DWORKDIR=<work dir> -P smoke_golden.cmake
#
# To regenerate after an intended model change, run
# `UNISTC_BENCH_JSON=<GOLDEN_DIR>/<bench>.json <bench> --smoke >
# <GOLDEN_DIR>/<bench>.txt` for each bench below (drop the JSON file
# for a bench not marked JSON).

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

# run_bench(<bench> [JSON]): run `<bench> --smoke` from WORKDIR and
# pin its stdout; with JSON, also its UNISTC_BENCH_JSON dump.
function(run_bench name)
    if(ARGN STREQUAL "JSON")
        set(ENV{UNISTC_BENCH_JSON} ${WORKDIR}/${name}.json)
    endif()
    execute_process(
        COMMAND ${BENCH_DIR}/${name} --smoke
        WORKING_DIRECTORY ${WORKDIR}
        OUTPUT_FILE ${WORKDIR}/${name}.txt
        ERROR_FILE ${WORKDIR}/${name}.err
        RESULT_VARIABLE rc)
    unset(ENV{UNISTC_BENCH_JSON})
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} --smoke exited with ${rc}")
    endif()
    expect_golden(${name}.txt)
    if(ARGN STREQUAL "JSON")
        expect_golden(${name}.json)
    endif()
endfunction()

run_bench(bench_fig10_ordering)
run_bench(bench_abl_ordering)
run_bench(bench_abl_fillorder)
run_bench(bench_abl_gating)
run_bench(bench_fig14_casestudy)
run_bench(bench_fig22_eed)
run_bench(bench_ext_dnn_e2e)
run_bench(bench_abl_lifecycle)
run_bench(bench_abl_partition)
run_bench(bench_ext_smscale)
run_bench(bench_ext_roofline JSON)
run_bench(bench_ext_structured)
run_bench(bench_ext_macscale)
run_bench(bench_tab04_tilesize)
run_bench(bench_tab06_geometry)
run_bench(bench_tab07_matrices)
run_bench(bench_tab09_area)
run_bench(bench_fig05_util_breakdown JSON)
run_bench(bench_fig15_format)
run_bench(bench_fig16_random)
run_bench(bench_fig17_kernels JSON)
run_bench(bench_fig18_io_energy JSON)
run_bench(bench_fig19_traffic JSON)
run_bench(bench_fig20_distribution JSON)
run_bench(bench_fig21_amg)

message(STATUS "every bench reproduces its bench/golden/smoke stdout "
               "and pinned bench JSON byte for byte")
