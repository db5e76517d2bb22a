/**
 * @file
 * SweepSession: the per-run --jobs state machine driving the plan /
 * execute / replay phases (docs/PARALLELISM.md; moved out of
 * bench/bench_common.hh). Off by default; DriverSession flips it
 * when the request asks for a parallel sweep: the body runs twice,
 * first as a silenced *plan* pass where every runKernel() call
 * submits a JobSpec to the SweepExecutor and returns a degenerate
 * sentinel, then — after a barrier — as a serial *replay* pass that
 * splices the precomputed results back in, producing byte-identical
 * output for any worker count.
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
        Off,    ///< Serial: runKernel() simulates inline.
        Plan,   ///< Recording pass: submit jobs, return sentinels.
        Replay, ///< Serial re-run returning precomputed results.
    };

    SweepSession() = default;

    SweepSession(const SweepSession &) = delete;
    SweepSession &operator=(const SweepSession &) = delete;

    Mode mode() const { return mode_; }

    /**
     * Begin the plan pass with the request's worker count and trace
     * capacity. Stats collection stays off — the ResultLog builds its
     * own per-entry registries at dump time, so executor-side shards
     * would be redundant work.
     */
    void startPlan(const SweepRequest &req);

    /**
     * Barrier: all planned jobs finish, then replay begins. Raises
     * the first failed job's error (SweepExecutor::wait()).
     */
    void startReplay();

    /** Plan-pass runKernel(): record + submit, return a sentinel. */
    RunResult plan(Kernel kernel, const StcModel &model,
                   const Prepared &p, const EnergyModel &energy,
                   int bCols);

    /** Replay-pass runKernel(): next precomputed result, checked. */
    RunResult replay(Kernel kernel, const StcModel &model,
                     const Prepared &p);

    /**
     * Plan-pass runKernelLineup(): submit ONE multi-model job whose
     * lineup shares a single task stream, return sentinels.
     */
    std::vector<RunResult> planLineup(
        Kernel kernel, const std::vector<const StcModel *> &models,
        const Prepared &p, const EnergyModel &energy, int bCols);

    /**
     * Replay-pass runKernelLineup(): per-model results of the next
     * planned multi-model job, checked against the request; the
     * job's engine counters land in @p counters.
     */
    std::vector<RunResult> replayLineup(
        Kernel kernel, const std::vector<const StcModel *> &models,
        const Prepared &p, PipelineCounters *counters);

    /**
     * The live executor (null when Off). Valid through the replay
     * pass — front-ends read trace()/pipelineCounters() from it
     * while reporting; reset() destroys it.
     */
    const SweepExecutor *executor() const { return exec_.get(); }

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
