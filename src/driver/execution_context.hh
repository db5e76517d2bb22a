/**
 * @file
 * ExecutionContext: everything one sweep run needs to execute —
 * the run's request, the sweep session and the result log — owned
 * by one object instead of per-process singletons (the
 * bench_common.hh arrangement this library replaced). A process
 * gets a default context (global()) whose ResultLog still arms the
 * UNISTC_BENCH_JSON dump-at-exit, so existing binaries behave
 * identically; embedders (tests) construct their own contexts and
 * run several sweeps back to back in one process without state
 * leaking between them (beginRun()).
 *
 * runKernel()/runKernelLineup() route through active(): current()
 * when a DriverSession (or a test) installed one, the process
 * default otherwise.
 */

#ifndef UNISTC_DRIVER_EXECUTION_CONTEXT_HH
#define UNISTC_DRIVER_EXECUTION_CONTEXT_HH

#include "driver/result_log.hh"
#include "driver/sweep_request.hh"
#include "driver/sweep_session.hh"
#include "obs/trace.hh"

namespace unistc
{
namespace driver
{

/** One run's execution state: sweep session + result log. */
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

    SweepSession &sweep() { return sweep_; }
    ResultLog &results() { return results_; }

    /**
     * False while the body's output is being discarded — the --jobs
     * plan pass, where stdout goes to /dev/null and results are
     * sentinels. Front-ends guard artifact writes (traces, stats
     * JSON, saved BBC containers) on it so files are written exactly
     * once, by the reporting run.
     */
    bool reportingPass() const { return reportingPass_; }
    void setReportingPass(bool on) { reportingPass_ = on; }

    /**
     * The request of the current run (defaults outside a
     * DriverSession). Bench bodies read request().quick.
     */
    const SweepRequest &request() const { return request_; }

    /**
     * The run's trace: the sweep executor's merged per-job trace
     * during replay, null otherwise.
     */
    const TraceSink *runTrace() const { return sweep_.trace(); }

    /**
     * Start serving @p req: reset per-run session state (sweep mode,
     * cursor) so a long-lived context can serve another request.
     * Recorded results are kept: the log spans the process.
     */
    void beginRun(const SweepRequest &req);

  private:
    explicit ExecutionContext(bool processDefault)
        : results_(/*atexitDump=*/processDefault)
    {
    }

    SweepRequest request_;
    SweepSession sweep_;
    ResultLog results_;
    bool reportingPass_ = true;
};

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_EXECUTION_CONTEXT_HH
