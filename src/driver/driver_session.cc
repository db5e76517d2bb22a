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

#include "cache/matrix_cache.hh"
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

void
logCacheSummary()
{
    const MatrixCache &cache = MatrixCache::global();
    if (!cache.enabled())
        return;
    const CacheCounters c = cache.counters();
    UNISTC_INFORM("matrix cache (", cache.dir(), "): ", c.hits,
                  " hit(s), ", c.misses, " miss(es), ", c.bytesRead,
                  " B read, ", c.bytesWritten, " B written");
}

namespace
{

/**
 * Cache flags override the UNISTC_CACHE_DIR / UNISTC_CACHE env
 * configuration; the driver applies them before the body runs so
 * generated matrices go through the cache.
 */
void
applyCacheFlags(const SweepRequest &req)
{
    std::string dir = req.cacheDir;
    if (dir.empty()) {
        if (const char *env = std::getenv("UNISTC_CACHE_DIR"))
            dir = env;
    }
    if (req.cacheMode != CacheMode::Off && dir.empty()) {
        UNISTC_FATAL("--cache=", toString(req.cacheMode),
                     " needs --cache-dir or UNISTC_CACHE_DIR");
    }
    MatrixCache::global().configure(
        req.cacheMode == CacheMode::Off ? "" : dir, req.cacheMode);
}

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
    ctx_.beginRun();
    if (req.logLevelSet)
        setLogLevel(req.logLevel);
#if UNISTC_DRIVER_POSIX
    // --smoke: propagate the tiny-corpus environment before the body
    // runs, so every corpus builder sees it. Existing environment
    // settings win.
    if (req.smoke) {
        ::setenv("UNISTC_BENCH_QUICK", "1", 0);
        ::setenv("UNISTC_CORPUS_CLAMP", "2", 0);
    }
#endif
    if (req.cacheFlagged)
        applyCacheFlags(req);

    // Warehouse sink (off unless UNISTC_WAREHOUSE_DIR): opened before
    // the body so rows stream out as they are recorded.
    warehouse::BenchSink::instance().configure(argc, argv);
    if (!req.resumePath.empty())
        ctx_.checkpoints().configure(req.resumePath);

#if !UNISTC_DRIVER_POSIX
    if (req.jobs > 1)
        UNISTC_WARN("--jobs needs POSIX fd redirection; running "
                    "serially");
    const int rc = body(argc, argv);
    logCacheSummary();
    return rc;
#else
    // A plan/replay double traversal is needed for parallelism and
    // for per-job trace spans — a traced run uses it even at
    // --jobs 1 so the trace has the same structure for any N.
    const bool usePlanPass =
        req.jobs > 1 || req.traceJobCapacity > 0;
    if (!usePlanPass) {
        const int rc = body(argc, argv);
        logCacheSummary();
        return rc;
    }
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
    ctx_.checkpoints().resetCursor();
    rc = body(argc, argv);
    ctx_.sweep().finish();
    logCacheSummary();
    return rc;
#endif
}

} // namespace driver
} // namespace unistc
