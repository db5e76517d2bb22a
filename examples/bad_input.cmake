# Bad-input gate for simulate_cli: a malformed flag, value or name
# must end in a clean fatal, exit code exactly 1 with a message on
# stderr naming the problem, never in an assertion abort or another
# signal. WILL_FAIL cannot tell the two apart (it passes on SIGABRT),
# so this script checks the exit code and the message of every case.
# Driven by ctest (see CMakeLists.txt):
#
#   cmake -DCLI=<simulate_cli> -P bad_input.cmake

if(NOT DEFINED CLI)
    message(FATAL_ERROR "CLI is required")
endif()

# expect_fatal(<stderr substring> <simulate_cli args>...)
function(expect_fatal expected)
    string(REPLACE ";" " " args "${ARGN}")
    execute_process(
        COMMAND ${CLI} ${ARGN}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    # A signal death sets rc to a description, never to "1".
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR
                "simulate_cli ${args}: want exit code 1, got '${rc}'\n"
                "${err}")
    endif()
    string(FIND "${err}" "${expected}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
                "simulate_cli ${args}: stderr lacks '${expected}':\n"
                "${err}")
    endif()
endfunction()

# The small matrix keeps a case that slips past validation fast.
set(small --gen banded:64,4,0.5)

expect_fatal("unknown option '--bogus-flag'" --bogus-flag)
expect_fatal("unknown option '--shards'" --shards 2 ${small})
expect_fatal("unknown option '--cache-dir'" --cache-dir /tmp/x ${small})
expect_fatal("unknown option '--cache'" --cache rw ${small})
expect_fatal("unknown option '--jobs'" --jobs 2 ${small})
expect_fatal("unknown option '--resume'" --resume /tmp/x ${small})
expect_fatal("unknown option '--strict'" --strict ${small})
expect_fatal("unknown option '--max-job-seconds'"
             --max-job-seconds 1 ${small})
expect_fatal("unknown kernel 'nope'" --kernel nope ${small})
expect_fatal("--model and --arch are mutually exclusive"
             --model Uni-STC --arch Uni-STC ${small})
expect_fatal("--dpgs needs an integer, got '8x'" --dpgs 8x ${small})
expect_fatal("--dpgs needs a positive count, got 0" --dpgs 0 ${small})
expect_fatal("--bcols needs a positive count, got -4"
             --kernel spmm --bcols -4 ${small})
# --trace-events is checked even when --trace is absent.
expect_fatal("--trace-events needs an integer, got 'abc'"
             --trace-events abc ${small})
expect_fatal("--trace-events needs a positive count, got 0"
             --trace-events 0 ${small})
expect_fatal("unknown --precision 'fp16'" --precision fp16 ${small})
expect_fatal("malformed --gen spec 'random:-5'" --gen random:-5)
expect_fatal("unknown STC model 'NoSuchModel'"
             --model NoSuchModel ${small})

message(STATUS "every bad simulate_cli input exits 1 with a message")
