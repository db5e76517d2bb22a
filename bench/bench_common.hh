/**
 * @file
 * Thin adapter between the benchmark harnesses and the execution
 * driver library (src/driver/). The sweep engine that used to live
 * here — result log, sweep session, the kernel-run mode dispatch
 * and the orchestrating main() — is now the compiled
 * driver library; this header only re-exports the names bench bodies
 * use (Prepared, runKernel, runKernelLineup), adds quickMode() over
 * the run's parsed request, and generates the standard main() on top
 * of DriverSession.
 *
 * Every harness that includes this header accepts the full standard
 * execution family with no per-bench code (one parser, one --help,
 * one --version — driver/sweep_request.hh):
 *
 *   --quick    shrink workloads (also UNISTC_BENCH_QUICK)
 *   --smoke    tiny corpus for ctest smoke runs (implies --quick)
 *   --jobs N   fan runKernel() simulations across N worker threads
 *              (also UNISTC_JOBS; N = 0 or "auto" uses every core)
 *
 * How --jobs works (docs/PARALLELISM.md): the bench body runs twice.
 * The *plan* pass runs with stdout silenced and the log level raised;
 * every runKernel() / runKernelLineup() call records a JobSpec — a
 * lineup of model clones, shared BBC operands, energy parameters —
 * submits it to the thread pool (which starts simulating
 * immediately) and returns sentinel RunResults.
 * After a barrier, the *replay* pass re-runs the body serially; each
 * runKernel() call now returns the precomputed result for its
 * submission index. Because replay is the serial program with the
 * deterministic per-job results spliced in, stdout, tables and the
 * UNISTC_BENCH_JSON dump are byte-identical to a --jobs 1 run.
 *
 * The contract this buys is narrow and checked: the *sequence* of
 * runKernel() calls must not depend on simulation results (values
 * may — comparisons and roll-ups only affect printing). A diverging
 * bench fails fast with a clear fatal() in the replay pass.
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
 * body a DriverSession drives through the sweep phases.
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
