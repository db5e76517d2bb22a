#include "driver/driver_session.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define UNISTC_DRIVER_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#else
#define UNISTC_DRIVER_POSIX 0
#endif

#include "common/logging.hh"
#include "warehouse/sink.hh"

namespace unistc
{
namespace driver
{

ScopedPlanQuiet::ScopedPlanQuiet() : savedLevel_(logLevel())
{
    if (savedLevel_ < LogLevel::Error)
        setLogLevel(LogLevel::Error);
#if UNISTC_DRIVER_POSIX
    std::fflush(stdout);
    std::cout.flush();
    savedFd_ = ::dup(STDOUT_FILENO);
    const int nul = ::open("/dev/null", O_WRONLY);
    if (nul >= 0) {
        ::dup2(nul, STDOUT_FILENO);
        ::close(nul);
    }
#endif
}

ScopedPlanQuiet::~ScopedPlanQuiet()
{
#if UNISTC_DRIVER_POSIX
    std::fflush(stdout);
    std::cout.flush();
    if (savedFd_ >= 0) {
        ::dup2(savedFd_, STDOUT_FILENO);
        ::close(savedFd_);
    }
#endif
    setLogLevel(savedLevel_);
}

namespace
{

/** Restore the previous current() context on scope exit. */
class ScopedCurrentContext
{
  public:
    explicit ScopedCurrentContext(ExecutionContext &ctx)
        : previous_(ExecutionContext::makeCurrent(&ctx))
    {
    }

    ~ScopedCurrentContext()
    {
        ExecutionContext::makeCurrent(previous_);
    }

    ScopedCurrentContext(const ScopedCurrentContext &) = delete;
    ScopedCurrentContext &
    operator=(const ScopedCurrentContext &) = delete;

  private:
    ExecutionContext *previous_;
};

} // namespace

int
DriverSession::run(const SweepRequest &req, int argc, char **argv,
                   const Body &body)
{
    ScopedCurrentContext scope(ctx_);
    // A long-lived context (tests) may run several requests back to
    // back; stale per-run session state must not leak into this one.
    ctx_.beginRun(req);
    if (req.logLevelSet)
        setLogLevel(req.logLevel);
#if UNISTC_DRIVER_POSIX
    // --smoke: propagate the tiny-corpus clamp before the body runs,
    // so every corpus builder sees it. An existing setting wins.
    if (req.smoke)
        ::setenv("UNISTC_CORPUS_CLAMP", "2", 0);
#endif

    // Warehouse sink (off unless UNISTC_WAREHOUSE_DIR): opened before
    // the body so rows stream out as they are recorded.
    warehouse::BenchSink::instance().configure(argc, argv);

#if !UNISTC_DRIVER_POSIX
    if (req.jobs > 1)
        UNISTC_WARN("--jobs needs POSIX fd redirection; running "
                    "serially");
    return body(argc, argv);
#else
    // A plan/replay double traversal is needed for parallelism and
    // for per-job trace spans — a traced run uses it even at
    // --jobs 1 so the trace has the same structure for any N.
    const bool usePlanPass =
        req.jobs > 1 || req.traceJobCapacity > 0;
    if (!usePlanPass)
        return body(argc, argv);
    ctx_.sweep().startPlan(req);
    int rc;
    {
        ScopedPlanQuiet quiet;
        ctx_.setReportingPass(false);
        rc = body(argc, argv);
        ctx_.setReportingPass(true);
    }
    if (rc != 0)
        return rc;
    ctx_.sweep().startReplay();
    rc = body(argc, argv);
    ctx_.sweep().reset();
    return rc;
#endif
}

} // namespace driver
} // namespace unistc
