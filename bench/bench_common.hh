/**
 * @file
 * Thin adapter between the benchmark harnesses and the execution
 * driver library (src/driver/). The sweep engine that used to live
 * here — result log, the kernel-run path and the orchestrating
 * main() — is now the compiled driver library; this header only
 * re-exports the names bench bodies use (Prepared, runKernel,
 * runKernelLineup), adds quickMode() over the run's parsed request,
 * and generates the standard main() on top of DriverSession.
 *
 * Every harness that includes this header accepts the full standard
 * execution family with no per-bench code (one parser, one --help,
 * one --version — driver/sweep_request.hh):
 *
 *   --quick    shrink workloads (also UNISTC_BENCH_QUICK)
 *   --smoke    tiny corpus for ctest smoke runs (implies --quick)
 *
 * The body runs once, serially. To use several cores, run several
 * harnesses as separate processes (README.md).
 */

#ifndef UNISTC_BENCH_BENCH_COMMON_HH
#define UNISTC_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "driver/driver_session.hh"
#include "driver/execution_context.hh"
#include "driver/kernel_run.hh"
#include "driver/sweep_request.hh"
#include "driver/version.hh"
#include "engine/kernel_pipeline.hh"
#include "obs/bench_json.hh"
#include "obs/json_writer.hh"
#include "obs/metrics_export.hh"
#include "obs/stat_registry.hh"
#include "runner/block_driver.hh"
#include "runner/report.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmm_runner.hh"
#include "runner/spmspv_runner.hh"
#include "runner/spmv_runner.hh"
#include "stc/registry.hh"

namespace unistc
{
namespace bench
{

// The bench-facing surface, re-exported from the driver library.
using driver::Prepared;
using driver::runKernel;
using driver::runKernelLineup;

/**
 * True when the bench should shrink workloads: the run's request
 * asked for --quick, --smoke or UNISTC_BENCH_QUICK.
 */
inline bool
quickMode()
{
    return driver::ExecutionContext::active().request().quick;
}

} // namespace bench
} // namespace unistc

#ifndef UNISTC_BENCH_NO_MAIN

/**
 * The bench's own main() (renamed below, SDL-style) — every harness
 * defines `int main(int, char **)`, which the macro turns into the
 * body a DriverSession runs.
 */
int unistc_bench_body(int argc, char **argv);

int
main(int argc, char **argv)
{
    namespace ud = unistc::driver;
    unistc::Result<ud::ParsedCli> parsed =
        ud::parseSweepCli(argc, argv);
    if (!parsed.ok())
        unistc::raise(parsed.status());
    if (parsed.value().helpRequested) {
        std::fputs(ud::sweepCliHelp(argv[0]).c_str(), stdout);
        return 0;
    }
    if (parsed.value().versionRequested) {
        std::fputs(ud::versionString(argv[0]).c_str(), stdout);
        return 0;
    }
    ud::DriverSession session;
    return session.run(parsed.value().request, argc, argv,
                       &unistc_bench_body);
}

#define main unistc_bench_body

#endif // UNISTC_BENCH_NO_MAIN

#endif // UNISTC_BENCH_BENCH_COMMON_HH
