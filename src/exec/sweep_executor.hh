/**
 * @file
 * Parallel sweep executor: fans independent JobSpecs out across a
 * ThreadPool and merges per-job observability state back in
 * deterministic submission order at the wait() barrier.
 *
 * Determinism guarantee: every job is a pure function of its spec
 * (own model clone, shared immutable operands, per-job RNG seed), and
 * all merging — results, StatRegistry shards, TraceSink buffers —
 * happens at the barrier in submission order. A sweep executed with
 * 1 worker and with N workers therefore produces byte-identical
 * stats JSON and trace output; only wall-clock time differs.
 *
 * Failures: a job that throws is caught on its worker, and wait()
 * raise()s the first failure in submission order, naming the job.
 * A job is a pure function of its spec, so re-running it would
 * repeat the failure; a failing job fails the sweep at every worker
 * count, as it fails a serial run.
 */

#ifndef UNISTC_EXEC_SWEEP_EXECUTOR_HH
#define UNISTC_EXEC_SWEEP_EXECUTOR_HH

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "engine/kernel_pipeline.hh"
#include "exec/job_spec.hh"
#include "exec/thread_pool.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "robust/status.hh"

namespace unistc
{

/** Fan-out / deterministic-merge driver for simulation sweeps. */
class SweepExecutor
{
  public:
    struct Options
    {
        /** Worker threads; <= 1 runs jobs inline at submit(). */
        int jobs = 1;

        /**
         * Register every job's RunResult into a per-job StatRegistry
         * shard, merged into stats() at the barrier under
         * "<statsPrefix><index>.<matrix>.<model>.<kernel>." keys.
         */
        bool collectStats = true;

        /**
         * Per-job TraceSink ring capacity; 0 disables tracing. The
         * merged trace() concatenates per-job buffers in submission
         * order.
         */
        std::size_t tracePerJob = 0;

        /** Key prefix for merged statistics. */
        std::string statsPrefix = "sweep.";
    };

    SweepExecutor();
    explicit SweepExecutor(const Options &opt);

    /** Waits for outstanding jobs (results are discarded). */
    ~SweepExecutor();

    SweepExecutor(const SweepExecutor &) = delete;
    SweepExecutor &operator=(const SweepExecutor &) = delete;

    /**
     * Enqueue a job; execution may begin immediately on a worker
     * (or runs inline when jobs <= 1). When @p spec.seed is zero a
     * per-job seed is derived from the submission index, so the
     * seed — and any synthesized operand — is identical no matter
     * how many workers execute the sweep. Returns the job index.
     * submit() after wait() is a lifecycle bug (panic).
     */
    std::size_t submit(JobSpec spec);

    /**
     * Barrier: block until every submitted job has run, then merge
     * stats shards and trace buffers in submission order. If any job
     * threw, raise()s the first failure in submission order instead
     * (its message names the job). Idempotent once it has merged.
     */
    void wait();

    std::size_t jobCount() const { return slots_.size(); }

    /** Worker threads in use (0 = inline). */
    int workerCount() const { return pool_.threadCount(); }

    /** Spec of job @p i as submitted (seed filled in). */
    const JobSpec &spec(std::size_t i) const;

    /**
     * Result of job @p i (the first model's result for multi-model
     * jobs); requires wait() first.
     */
    const RunResult &result(std::size_t i) const;

    /** Models fanned out by job @p i (1 for single-model jobs). */
    std::size_t fanout(std::size_t i) const;

    /**
     * Result of model @p m of (multi-model) job @p i, in lineup
     * order; requires wait() first. resultOf(i, 0) == result(i).
     */
    const RunResult &resultOf(std::size_t i, std::size_t m) const;

    /**
     * Engine counters of (multi-model) job @p i — all zero for
     * single-model jobs; requires wait() first.
     */
    const PipelineCounters &countersOf(std::size_t i) const;

    /**
     * Engine counters aggregated over every multi-model job of the
     * sweep (tasks summed; fan-out and peak-live maxima); requires
     * wait(). All zero when no job carried a lineup. They are also
     * registered in stats() under "engine." whenever a multi-model
     * job ran.
     */
    const PipelineCounters &pipelineCounters() const;

    /** Merged statistics (submission order); requires wait(). */
    const StatRegistry &stats() const;

    /**
     * Merged trace, null when Options::tracePerJob is 0; requires
     * wait(). Each job appears as its own trace process named
     * "<model> | <matrix>".
     */
    const TraceSink *trace() const;

    /** Largest worker count --jobs accepts and UNISTC_JOBS clamps to. */
    static constexpr int kMaxJobs = 1024;

    /**
     * Resolve a worker count: @p requested > 0 wins; otherwise
     * UNISTC_JOBS (positive integer, clamped to kMaxJobs, or
     * 0/"auto" for all hardware threads); otherwise @p fallback.
     */
    static int resolveJobs(int requested, int fallback = 1);

  private:
    struct Slot
    {
        JobSpec spec;
        std::unique_ptr<TraceSink> sink;

        /** Per-model results (lineup order); empty if the job threw. */
        std::vector<RunResult> results;

        /** Sinks for lineup models 1..N-1 (sink covers model 0). */
        std::vector<std::unique_ptr<TraceSink>> extraSinks;

        /** Engine counters of a multi-model run (else all zero). */
        PipelineCounters counters;

        /** First trace pid of this job (one pid per lineup model). */
        int pidBase = 0;

        /** The job's failure, Ok when it ran to completion. */
        Status error;
    };

    /** Execute one job, recording its failure instead of throwing. */
    void runSlot(Slot &slot);

    /** Fresh (empty) trace sinks for @p slot, if tracing is on. */
    void makeSinks(Slot &slot);

    Options opt_;
    ThreadPool pool_;
    /** Deque: stable element addresses while workers run. */
    std::deque<Slot> slots_;
    StatRegistry stats_;
    std::unique_ptr<TraceSink> mergedTrace_;
    PipelineCounters engineCounters_;
    bool merged_ = false;
    int nextPid_ = 0;
};

} // namespace unistc

#endif // UNISTC_EXEC_SWEEP_EXECUTOR_HH
