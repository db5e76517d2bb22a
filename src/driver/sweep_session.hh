/**
 * @file
 * SweepSession: the per-run --jobs state machine driving the plan /
 * execute / replay phases (docs/PARALLELISM.md). Off by default;
 * DriverSession flips it when the request asks for a parallel sweep
 * or a trace: the body runs twice, first as a silenced *plan* pass
 * where every runKernel() / runKernelLineup() call submits one
 * JobSpec — a lineup of model clones — to the SweepExecutor and
 * returns degenerate sentinels, then — after a barrier — as a serial
 * *replay* pass that splices the precomputed results and engine
 * counters back in, producing byte-identical output for any worker
 * count.
 */

#ifndef UNISTC_DRIVER_SWEEP_SESSION_HH
#define UNISTC_DRIVER_SWEEP_SESSION_HH

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/kernel_run.hh"
#include "driver/sweep_request.hh"
#include "exec/sweep_executor.hh"

namespace unistc
{
namespace driver
{

/** The --jobs plan/execute/replay state of one ExecutionContext. */
class SweepSession
{
  public:
    enum class Mode
    {
        Off,    ///< Serial: kernel runs simulate inline.
        Plan,   ///< Recording pass: submit jobs, return sentinels.
        Replay, ///< Serial re-run returning precomputed results.
    };

    SweepSession() = default;

    SweepSession(const SweepSession &) = delete;
    SweepSession &operator=(const SweepSession &) = delete;

    Mode mode() const { return mode_; }

    /**
     * Begin the plan pass with the request's worker count and trace
     * capacity.
     */
    void startPlan(const SweepRequest &req);

    /**
     * Barrier: all planned jobs finish, then replay begins. Raises
     * the first failed job's error (SweepExecutor::wait()).
     */
    void startReplay();

    /**
     * Plan-pass kernel run: submit ONE job whose lineup (clones of
     * @p models) shares a single task stream, and return one
     * sentinel per model.
     */
    std::vector<RunResult>
    plan(Kernel kernel, const std::vector<const StcModel *> &models,
         const Prepared &p, const EnergyModel &energy, int bCols);

    /**
     * Replay-pass kernel run: per-model results of the next planned
     * job, checked against the request; the job's engine counters
     * land in @p counters.
     */
    std::vector<RunResult>
    replay(Kernel kernel, const std::vector<const StcModel *> &models,
           const Prepared &p, PipelineCounters &counters);

    /**
     * The merged per-job trace while replaying a traced run, null
     * otherwise. reset() drops it.
     */
    const TraceSink *trace() const;

    /** Drop all sweep state for context reuse. */
    void reset();

    /**
     * The degenerate nonzero sentinel plan-pass calls return: several
     * bodies guard on `result.cycles == 0` before folding results
     * into rollups, and an all-skipped rollup panics (max() on empty
     * stat). Nonzero counters keep the plan pass on the same control
     * path; every derived ratio is a neutral 1.0 and the output goes
     * to /dev/null anyway.
     */
    static RunResult sentinel();

  private:
    struct Capture
    {
        std::shared_ptr<const BbcMatrix> bbc;
        std::shared_ptr<const SparseVector> x50;
    };

    /**
     * One shared copy of a Prepared matrix per sweep, keyed by name
     * and shape so every job over the same matrix shares operands
     * instead of copying them.
     */
    const Capture &capture(const Prepared &p);

    Mode mode_ = Mode::Off;
    std::unique_ptr<SweepExecutor> exec_;
    std::map<std::string, Capture> captures_;
    std::size_t cursor_ = 0;
};

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_SWEEP_SESSION_HH
