#include "driver/driver_session.hh"

#include <cstdlib>

#include "common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define UNISTC_DRIVER_POSIX 1
#else
#define UNISTC_DRIVER_POSIX 0
#endif

namespace unistc
{
namespace driver
{

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
    // back; each body reads its own request.
    ctx_.beginRun(req);
    if (req.logLevelSet)
        setLogLevel(req.logLevel);
#if UNISTC_DRIVER_POSIX
    // --smoke: propagate the tiny-corpus clamp before the body runs,
    // so every corpus builder sees it. An existing setting wins.
    if (req.smoke)
        ::setenv("UNISTC_CORPUS_CLAMP", "2", 0);
#endif
    return body(argc, argv);
}

} // namespace driver
} // namespace unistc
