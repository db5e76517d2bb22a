# Runs simulate_cli on one SpGEMM three ways — a one-model --arch
# lineup, a three-model --arch lineup and --model all — each at
# --jobs 1 and at --jobs 2, and fails unless stdout, the
# UNISTC_BENCH_JSON dump and the --stats-json file are byte-identical
# across the two worker counts. Each run has its own directory and
# uses the same relative file names, so the paths echoed on stdout
# match. Driven by ctest (see CMakeLists.txt):
#
#   cmake -DCLI=<simulate_cli> -DWORKDIR=<scratch dir> \
#         -P cli_jobs_determinism.cmake

foreach(var CLI WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})

set(arch_one_args --arch Uni-STC)
set(arch_three_args --arch DS-STC,RM-STC,Uni-STC)
set(model_all_args --model all)

foreach(case arch_one arch_three model_all)
    foreach(jobs 1 2)
        set(dir ${WORKDIR}/${case}/jobs${jobs})
        file(MAKE_DIRECTORY ${dir})
        set(ENV{UNISTC_BENCH_JSON} ${dir}/bench.json)
        execute_process(
            COMMAND ${CLI} --kernel spgemm --gen banded:512,8,0.4
                    ${${case}_args} --stats-json stats.json
                    --jobs ${jobs}
            WORKING_DIRECTORY ${dir}
            OUTPUT_FILE ${dir}/stdout.txt
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "simulate_cli ${case} --jobs ${jobs} exited with ${rc}")
        endif()
    endforeach()

    foreach(file stdout.txt bench.json stats.json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${WORKDIR}/${case}/jobs1/${file}
                    ${WORKDIR}/${case}/jobs2/${file}
            RESULT_VARIABLE differ)
        if(NOT differ EQUAL 0)
            message(FATAL_ERROR
                    "${case}: --jobs 1 and --jobs 2 produced different "
                    "${file} (under ${WORKDIR}/${case})")
        endif()
    endforeach()
endforeach()

message(STATUS "simulate_cli outputs are byte-identical at --jobs 1 and 2")
