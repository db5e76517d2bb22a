/**
 * @file
 * DriverSession: runs a front-end body under a SweepRequest —
 * the orchestration that used to live in bench_common.hh's generated
 * main() and (duplicated) in examples/simulate_cli.cc. The body runs
 * once, serially, in one process; a model that throws fails the run
 * by leaving the body. To use several cores, run several binaries as
 * separate processes (README.md).
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
