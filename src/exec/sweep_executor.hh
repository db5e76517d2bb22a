/**
 * @file
 * Parallel sweep executor: fans independent JobSpecs out across a
 * ThreadPool and, at the wait() barrier, hands results and engine
 * counters back and merges trace buffers, all in deterministic
 * submission order.
 *
 * Every job is a lineup of one or more model clones fed from one
 * task stream (exec/job_spec.hh), and every job takes the same path:
 * JobSpec::run() with one optional trace sink per model and the
 * job's engine counters.
 *
 * Determinism guarantee: every job is a pure function of its spec
 * (own model clones, shared immutable operands), and all merging —
 * results, engine counters, TraceSink buffers — is read back or
 * happens at the barrier in submission order. A sweep executed with
 * 1 worker and with N workers therefore produces byte-identical
 * results and trace output; only wall-clock time differs.
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
#include <vector>

#include "engine/kernel_pipeline.hh"
#include "exec/job_spec.hh"
#include "exec/thread_pool.hh"
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
         * Per-model TraceSink ring capacity; 0 disables tracing. The
         * merged trace() concatenates per-job buffers in submission
         * order.
         */
        std::size_t tracePerJob = 0;
    };

    explicit SweepExecutor(const Options &opt);

    /** Waits for outstanding jobs (results are discarded). */
    ~SweepExecutor();

    SweepExecutor(const SweepExecutor &) = delete;
    SweepExecutor &operator=(const SweepExecutor &) = delete;

    /**
     * Enqueue a job; execution may begin immediately on a worker
     * (or runs inline when jobs <= 1). Returns the job index.
     * submit() after wait() is a lifecycle bug (panic).
     */
    std::size_t submit(JobSpec spec);

    /**
     * Barrier: block until every submitted job has run, then merge
     * trace buffers in submission order. If any job
     * threw, raise()s the first failure in submission order instead
     * (its message names the job). Idempotent once it has merged.
     */
    void wait();

    std::size_t jobCount() const { return slots_.size(); }

    /** Worker threads in use (0 = inline). */
    int workerCount() const { return pool_.threadCount(); }

    /** Spec of job @p i as submitted. */
    const JobSpec &spec(std::size_t i) const;

    /**
     * Result of model @p m of job @p i, in lineup order; requires
     * wait() first.
     */
    const RunResult &resultOf(std::size_t i, std::size_t m) const;

    /** Engine counters of job @p i; requires wait() first. */
    const PipelineCounters &countersOf(std::size_t i) const;

    /**
     * Merged trace, null when Options::tracePerJob is 0; requires
     * wait(). Each lineup model of each job appears as its own trace
     * process named "<model> | <matrix>".
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

        /** One sink per lineup model; empty when tracing is off. */
        std::vector<std::unique_ptr<TraceSink>> sinks;

        /** Per-model results (lineup order); empty if the job threw. */
        std::vector<RunResult> results;

        /** Engine counters of the job's pass. */
        PipelineCounters counters;

        /** The job's failure, Ok when it ran to completion. */
        Status error;
    };

    /** Execute one job, recording its failure instead of throwing. */
    void runSlot(Slot &slot);

    Options opt_;
    ThreadPool pool_;
    /** Deque: stable element addresses while workers run. */
    std::deque<Slot> slots_;
    std::unique_ptr<TraceSink> mergedTrace_;
    bool merged_ = false;
    /** Trace pid of the next lineup model (one pid per model). */
    int nextPid_ = 0;
};

} // namespace unistc

#endif // UNISTC_EXEC_SWEEP_EXECUTOR_HH
