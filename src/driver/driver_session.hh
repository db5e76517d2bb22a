/**
 * @file
 * DriverSession: runs a front-end body under a SweepRequest —
 * the orchestration that used to live in bench_common.hh's generated
 * main() and (duplicated) in examples/simulate_cli.cc. One call,
 * two possible shapes, both in one process:
 *
 *   serial      body runs once, results simulate inline.
 *   --jobs      plan pass (stdout silenced, jobs fan out over a
 *               thread pool) → barrier → serial replay pass that
 *               splices the precomputed results in
 *               (docs/PARALLELISM.md).
 *
 * In both shapes the reporting output — stdout and UNISTC_BENCH_JSON
 * — is produced by exactly one serial traversal of the body, so it
 * is byte-identical across worker counts. A job that throws fails
 * the run in both shapes: serially the exception leaves the body,
 * under --jobs the barrier raises it.
 */

#ifndef UNISTC_DRIVER_DRIVER_SESSION_HH
#define UNISTC_DRIVER_DRIVER_SESSION_HH

#include <functional>

#include "driver/execution_context.hh"
#include "driver/sweep_request.hh"

namespace unistc
{
namespace driver
{

/**
 * Scoped plan-pass silence: stdout redirected to /dev/null and the
 * log level raised, so a recording traversal of the body prints
 * nothing; fatal()/panic() still reach stderr. Restores both on
 * destruction. Exposed for tests; DriverSession applies it around
 * the plan pass.
 */
class ScopedPlanQuiet
{
  public:
    ScopedPlanQuiet();
    ~ScopedPlanQuiet();

    ScopedPlanQuiet(const ScopedPlanQuiet &) = delete;
    ScopedPlanQuiet &operator=(const ScopedPlanQuiet &) = delete;

  private:
    LogLevel savedLevel_;
    int savedFd_ = -1;
};

/** Orchestrates one request over one ExecutionContext. */
class DriverSession
{
  public:
    /** The front-end's program body (its pre-driver main()). */
    using Body = std::function<int(int, char **)>;

    explicit DriverSession(
        ExecutionContext &ctx = ExecutionContext::global())
        : ctx_(ctx)
    {
    }

    DriverSession(const DriverSession &) = delete;
    DriverSession &operator=(const DriverSession &) = delete;

    /**
     * Run @p body under @p req. @p argv is the body's command line,
     * forwarded verbatim. Installs ctx as current() for the
     * duration. Returns the body's exit code.
     */
    int run(const SweepRequest &req, int argc, char **argv,
            const Body &body);

  private:
    ExecutionContext &ctx_;
};

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_DRIVER_SESSION_HH
