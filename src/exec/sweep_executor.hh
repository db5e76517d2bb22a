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
 * Recovery (docs/ROBUSTNESS.md): with Options::maxRetries a job that
 * throws is re-run (small backoff) before being declared failed; with
 * Options::maxJobSeconds a cooperative watchdog warns when a job
 * overruns and the overrun is recorded as a timeout on completion;
 * with Options::quarantine failed jobs are replaced by a zeroed
 * RunResult and the sweep continues (otherwise wait() raise()s the
 * first failure). Quarantined results are zeroed — not partial — so
 * the 1-worker/N-worker byte-identical guarantee still holds under
 * deterministic faults. Recovery counters (robust.faults_detected,
 * robust.jobs_retried, robust.jobs_quarantined) appear in stats()
 * whenever a recovery option is enabled.
 */

#ifndef UNISTC_EXEC_SWEEP_EXECUTOR_HH
#define UNISTC_EXEC_SWEEP_EXECUTOR_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/kernel_pipeline.hh"
#include "exec/job_spec.hh"
#include "exec/thread_pool.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

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

        /**
         * Soft per-job wall-clock budget in seconds; 0 disables the
         * watchdog. Jobs cannot be killed mid-flight (cooperative
         * timeout): a watchdog thread warns when a running job
         * overruns, and on completion the job is recorded as timed
         * out — quarantined or raised like any other failure.
         * Timed-out jobs are not retried (a slow job stays slow).
         */
        double maxJobSeconds = 0;

        /**
         * Re-run a throwing job up to this many extra times (with a
         * small backoff) before declaring it failed. Each retry
         * resets the job's trace buffer, so a transient failure
         * leaves no half-written events behind.
         */
        int maxRetries = 0;

        /**
         * Keep going past failed jobs: a job that still fails after
         * retries (or times out) contributes a zeroed RunResult and
         * the sweep completes. When false (default), wait() raise()s
         * the first failure in submission order.
         */
        bool quarantine = false;
    };

    /** Post-wait() per-job recovery verdict (see outcome()). */
    struct JobOutcome
    {
        /** Job produced a real result (possibly after retries). */
        bool ok = true;

        /** Job exceeded Options::maxJobSeconds. */
        bool timedOut = false;

        /** Execution attempts made (1 = clean first run). */
        int attempts = 1;

        /** Last failure message; empty when ok. */
        std::string error;
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
     * stats shards and trace buffers in submission order. Idempotent.
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

    /**
     * Recovery verdict of job @p i (attempts, timeout, final error);
     * requires wait() first. outcome(i).ok is false exactly when job
     * i was quarantined (its result() is zeroed).
     */
    JobOutcome outcome(std::size_t i) const;

    /** Sweep-wide recovery tallies (the robust.* stats counters). */
    struct RecoveryCounters
    {
        std::uint64_t faultsDetected = 0; ///< Attempts that failed.
        std::uint64_t jobsRetried = 0;    ///< Extra attempts made.
        std::uint64_t jobsQuarantined = 0;
        std::uint64_t jobsTimedOut = 0;
    };

    /**
     * Aggregate recovery counters over every job — available even
     * with Options::collectStats off (the warehouse commit record
     * reads them without paying for stat shards); requires wait().
     */
    RecoveryCounters recoveryCounters() const;

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
    /** Watchdog's view of a slot's lifecycle. */
    enum class SlotState { Idle, Running, Done };

    struct Slot
    {
        std::size_t index = 0;
        JobSpec spec;
        RunResult result;
        std::unique_ptr<TraceSink> sink;

        /** Per-model results (lineup order); results[0] == result. */
        std::vector<RunResult> results;

        /** Sinks for lineup models 1..N-1 (sink covers model 0). */
        std::vector<std::unique_ptr<TraceSink>> extraSinks;

        /** Engine counters of a multi-model run (else all zero). */
        PipelineCounters counters;

        /** First trace pid of this job (one pid per lineup model). */
        int pidBase = 0;

        // Recovery bookkeeping, written by the worker running the
        // job and read after the wait() barrier (except state/start/
        // warned, which the watchdog reads while the job runs).
        int attempts = 0;
        bool failed = false;
        bool timedOut = false;
        std::string error;
        std::atomic<SlotState> state{SlotState::Idle};
        std::chrono::steady_clock::time_point start{};
        std::atomic<bool> warned{false};
    };

    /** Execute one job with retry / timeout / quarantine handling. */
    void runSlot(Slot &slot);

    /** Fresh (empty) trace sink for @p slot, if tracing is on. */
    void resetSink(Slot &slot);

    /** True when any recovery option is enabled. */
    bool recoveryEnabled() const;

    void watchdogLoop();
    void stopWatchdog();

    Options opt_;
    ThreadPool pool_;
    /** Deque: stable element addresses while workers run. */
    std::deque<Slot> slots_;
    /** Guards slots_ growth against the watchdog's scan. */
    mutable std::mutex slotsMu_;
    StatRegistry stats_;
    std::unique_ptr<TraceSink> mergedTrace_;
    PipelineCounters engineCounters_;
    bool merged_ = false;
    int nextPid_ = 0;

    std::thread watchdog_;
    std::mutex watchdogMu_;
    std::condition_variable watchdogCv_;
    bool watchdogStop_ = false;
};

} // namespace unistc

#endif // UNISTC_EXEC_SWEEP_EXECUTOR_HH
