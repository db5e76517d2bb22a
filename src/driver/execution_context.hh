/**
 * @file
 * ExecutionContext: everything one run needs to execute — the run's
 * request and the result log — owned by one object instead of
 * per-process singletons (the bench_common.hh arrangement this
 * library replaced). A process gets a default context (global())
 * whose ResultLog still arms the UNISTC_BENCH_JSON dump-at-exit, so
 * existing binaries behave identically; embedders (tests) construct
 * their own contexts and run several requests back to back in one
 * process without state leaking between them (beginRun()).
 *
 * runKernel()/runKernelLineup() route through active(): current()
 * when a DriverSession (or a test) installed one, the process
 * default otherwise.
 */

#ifndef UNISTC_DRIVER_EXECUTION_CONTEXT_HH
#define UNISTC_DRIVER_EXECUTION_CONTEXT_HH

#include "driver/result_log.hh"
#include "driver/sweep_request.hh"

namespace unistc
{
namespace driver
{

/** One run's execution state: request + result log. */
class ExecutionContext
{
  public:
    /** A fresh embeddable context (no dump-at-exit side effects). */
    ExecutionContext() : ExecutionContext(false) {}

    ExecutionContext(const ExecutionContext &) = delete;
    ExecutionContext &operator=(const ExecutionContext &) = delete;

    /**
     * The process-default context — the one whose ResultLog dumps
     * UNISTC_BENCH_JSON at exit. Intentionally leaked so the atexit
     * handler can outlive static destruction.
     */
    static ExecutionContext &global();

    /** The installed context, null when none is. */
    static ExecutionContext *current();

    /**
     * Install @p ctx as the context runKernel() routes through
     * (null restores the process default). Returns the previous one
     * so scopes can nest.
     */
    static ExecutionContext *makeCurrent(ExecutionContext *ctx);

    /** current() when installed, the process default otherwise. */
    static ExecutionContext &active();

    ResultLog &results() { return results_; }

    /**
     * The request of the current run (defaults outside a
     * DriverSession). Bench bodies read request().quick.
     */
    const SweepRequest &request() const { return request_; }

    /**
     * Start serving @p req. Recorded results are kept: the log spans
     * the process.
     */
    void beginRun(const SweepRequest &req) { request_ = req; }

  private:
    explicit ExecutionContext(bool processDefault)
        : results_(/*atexitDump=*/processDefault)
    {
    }

    SweepRequest request_;
    ResultLog results_;
};

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_EXECUTION_CONTEXT_HH
