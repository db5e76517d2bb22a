#include "exec/sweep_executor.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "cache/matrix_cache.hh"
#include "common/logging.hh"
#include "obs/metrics_export.hh"
#include "robust/status.hh"

namespace unistc
{

namespace
{

/** Base mixed into auto-assigned per-job seeds. */
constexpr std::uint64_t kJobSeedBase = 0x5EEDBA5Eu;

/** Watchdog scan period. */
constexpr std::chrono::milliseconds kWatchdogTick{25};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

SweepExecutor::SweepExecutor() : SweepExecutor(Options()) {}

SweepExecutor::SweepExecutor(const Options &opt)
    : opt_(opt), pool_(opt.jobs <= 1 ? 0 : opt.jobs)
{
    if (opt_.maxJobSeconds > 0)
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

SweepExecutor::~SweepExecutor()
{
    pool_.wait();
    stopWatchdog();
}

bool
SweepExecutor::recoveryEnabled() const
{
    return opt_.maxJobSeconds > 0 || opt_.maxRetries > 0 ||
           opt_.quarantine;
}

void
SweepExecutor::resetSink(Slot &slot)
{
    if (opt_.tracePerJob == 0)
        return;
    // One trace process per lineup model; a single-model job keeps
    // the historical pid == submission index (pidBase advances by
    // each job's fan-out).
    slot.sink = std::make_unique<TraceSink>(opt_.tracePerJob);
    slot.sink->setProcess(slot.pidBase,
                          slot.spec.modelName(0) + " | " +
                              slot.spec.matrix);
    slot.extraSinks.clear();
    for (std::size_t m = 1; m < slot.spec.fanout(); ++m) {
        slot.extraSinks.push_back(
            std::make_unique<TraceSink>(opt_.tracePerJob));
        slot.extraSinks.back()->setProcess(
            slot.pidBase + static_cast<int>(m),
            slot.spec.modelName(m) + " | " + slot.spec.matrix);
    }
}

std::size_t
SweepExecutor::submit(JobSpec spec)
{
    UNISTC_ASSERT(!merged_,
                  "SweepExecutor::submit after wait(): start a new "
                  "executor for a new sweep");
    const std::size_t index = slots_.size();
    if (spec.seed == 0) {
        // Seeded per-job (by submission index), never per-thread:
        // the stream is identical whichever worker runs the job.
        spec.seed = kJobSeedBase + static_cast<std::uint64_t>(index);
    }
    Slot *slot = nullptr;
    {
        // The watchdog scans slots_ while the deque grows; references
        // stay stable but the deque's bookkeeping does not.
        std::lock_guard<std::mutex> lock(slotsMu_);
        slots_.emplace_back();
        slot = &slots_.back();
    }
    slot->index = index;
    slot->spec = std::move(spec);
    slot->pidBase = nextPid_;
    nextPid_ += static_cast<int>(slot->spec.fanout());
    resetSink(*slot);
    pool_.submit([this, slot] { runSlot(*slot); });
    return index;
}

void
SweepExecutor::runSlot(Slot &slot)
{
    const int max_attempts = 1 + std::max(0, opt_.maxRetries);
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        slot.attempts = attempt;
        if (attempt > 1) {
            // Retry: fresh trace buffer (no half-written events from
            // the failed attempt) and a small linear backoff.
            resetSink(slot);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10 * (attempt - 1)));
        }
        slot.start = std::chrono::steady_clock::now();
        slot.state.store(SlotState::Running,
                         std::memory_order_release);
        try {
            std::vector<RunResult> results;
            if (slot.spec.fanout() > 1) {
                // Multi-model job: one pass over one task stream,
                // every task fanned out to the whole lineup.
                slot.counters = PipelineCounters{};
                std::vector<TraceSink *> traces;
                if (slot.sink != nullptr) {
                    traces.push_back(slot.sink.get());
                    for (const auto &s : slot.extraSinks)
                        traces.push_back(s.get());
                }
                results = slot.spec.runMulti(traces, &slot.counters);
            } else {
                results.push_back(slot.spec.run(slot.sink.get()));
            }
            slot.state.store(SlotState::Done,
                             std::memory_order_release);
            if (opt_.maxJobSeconds > 0 &&
                secondsSince(slot.start) > opt_.maxJobSeconds) {
                // Cooperative timeout: the job cannot be killed
                // mid-flight, so the overrun is detected here and
                // the (late) result discarded. Not retried — a slow
                // job stays slow.
                slot.failed = true;
                slot.timedOut = true;
                slot.error = "job " + slot.spec.label() +
                             " exceeded the " +
                             std::to_string(opt_.maxJobSeconds) +
                             " s budget";
                break;
            }
            slot.results = std::move(results);
            slot.result = slot.results.front();
            slot.failed = false;
            slot.error.clear();
            return;
        } catch (const std::exception &e) {
            slot.state.store(SlotState::Done,
                             std::memory_order_release);
            slot.failed = true;
            slot.error = e.what();
            if (attempt < max_attempts) {
                UNISTC_WARN("job ", slot.spec.label(), " attempt ",
                            attempt, " failed (", e.what(),
                            "); retrying");
            }
        }
    }
    // Failed after every attempt (or timed out). Quarantine
    // semantics: zeroed results (one per lineup model) and an empty
    // trace buffer, both independent of worker count, preserving the
    // byte-identical merge guarantee.
    slot.result = RunResult{};
    slot.results.assign(slot.spec.fanout(), RunResult{});
    slot.counters = PipelineCounters{};
    resetSink(slot);
}

void
SweepExecutor::watchdogLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(watchdogMu_);
            watchdogCv_.wait_for(lock, kWatchdogTick,
                                 [this] { return watchdogStop_; });
            if (watchdogStop_)
                return;
        }
        std::lock_guard<std::mutex> lock(slotsMu_);
        for (Slot &s : slots_) {
            if (s.state.load(std::memory_order_acquire) !=
                SlotState::Running)
                continue;
            if (secondsSince(s.start) <= opt_.maxJobSeconds)
                continue;
            if (s.warned.exchange(true))
                continue;
            UNISTC_WARN("watchdog: job ", s.spec.label(),
                        " exceeded its ", opt_.maxJobSeconds,
                        " s budget and is still running; it will be "
                        "flagged as timed out when it completes");
        }
    }
}

void
SweepExecutor::stopWatchdog()
{
    if (!watchdog_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(watchdogMu_);
        watchdogStop_ = true;
    }
    watchdogCv_.notify_all();
    watchdog_.join();
}

void
SweepExecutor::wait()
{
    pool_.wait();
    if (merged_)
        return;
    stopWatchdog();

    // Without quarantine, a failed job fails the sweep: surface the
    // first failure in submission order through raise() (throw or
    // exit per FatalBehavior) before any merging happens.
    if (!opt_.quarantine) {
        for (const Slot &s : slots_) {
            if (!s.failed)
                continue;
            raise(s.timedOut ? timeoutError(s.error)
                             : internalError(
                                   "job " + s.spec.label() +
                                   " failed after " +
                                   std::to_string(s.attempts) +
                                   " attempt(s): " + s.error));
        }
    }
    merged_ = true;

    // Deterministic merge: strictly submission order, independent of
    // which worker finished when.
    if (opt_.collectStats) {
        stats_.setCounter(opt_.statsPrefix + "jobCount",
                          slots_.size(),
                          "jobs executed by this sweep");
        std::uint64_t total_cycles = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const Slot &s = slots_[i];
            for (std::size_t m = 0; m < s.spec.fanout(); ++m) {
                const RunResult &res =
                    m < s.results.size() ? s.results[m] : s.result;
                registerRunResult(
                    stats_, res,
                    opt_.statsPrefix + std::to_string(i) + "." +
                        s.spec.matrix + "." + s.spec.modelName(m) +
                        "." + toString(s.spec.kernel) + ".");
                total_cycles += res.cycles;
            }
        }
        stats_.setCounter(opt_.statsPrefix + "totalCycles",
                          total_cycles,
                          "sum of simulated cycles over all jobs");
        if (recoveryEnabled()) {
            std::uint64_t faults = 0;
            std::uint64_t retried = 0;
            std::uint64_t quarantined = 0;
            for (const Slot &s : slots_) {
                // Every attempt that did not produce a result is one
                // detected fault.
                faults += static_cast<std::uint64_t>(
                    s.failed ? s.attempts : s.attempts - 1);
                retried += static_cast<std::uint64_t>(
                    std::max(0, s.attempts - 1));
                if (s.failed)
                    ++quarantined;
            }
            stats_.setCounter("robust.faults_detected", faults,
                              "job attempts that threw or timed out");
            stats_.setCounter("robust.jobs_retried", retried,
                              "extra attempts made after a failure");
            stats_.setCounter("robust.jobs_quarantined", quarantined,
                              "jobs replaced by a zeroed result");
        }
        // One shared artifact cache feeds every job's operands; its
        // counters depend only on the corpus requested before this
        // barrier, never on worker count, so they keep the 1-vs-N
        // byte-identical stats guarantee.
        if (MatrixCache::global().enabled())
            MatrixCache::global().registerStats(stats_);
    }

    // Aggregate engine counters over multi-model jobs: tasks sum;
    // fan-out and peak-live are maxima.
    bool any_multi = false;
    for (const Slot &s : slots_) {
        if (s.spec.fanout() <= 1)
            continue;
        any_multi = true;
        engineCounters_.tasksGenerated += s.counters.tasksGenerated;
        engineCounters_.modelsFanout =
            std::max(engineCounters_.modelsFanout,
                     s.counters.modelsFanout);
        engineCounters_.peakLiveTasks =
            std::max(engineCounters_.peakLiveTasks,
                     s.counters.peakLiveTasks);
    }
    if (any_multi && opt_.collectStats)
        engineCounters_.registerStats(stats_);

    if (opt_.tracePerJob > 0) {
        std::size_t total = 0;
        for (const Slot &s : slots_) {
            total += s.sink->size();
            for (const auto &extra : s.extraSinks)
                total += extra->size();
        }
        mergedTrace_ =
            std::make_unique<TraceSink>(std::max<std::size_t>(total,
                                                              1));
        for (const Slot &s : slots_) {
            mergedTrace_->mergeFrom(*s.sink);
            for (const auto &extra : s.extraSinks)
                mergedTrace_->mergeFrom(*extra);
        }
    }
}

const JobSpec &
SweepExecutor::spec(std::size_t i) const
{
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    return slots_[i].spec;
}

const RunResult &
SweepExecutor::result(std::size_t i) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::result before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    return slots_[i].result;
}

std::size_t
SweepExecutor::fanout(std::size_t i) const
{
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    return slots_[i].spec.fanout();
}

const RunResult &
SweepExecutor::resultOf(std::size_t i, std::size_t m) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::resultOf before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    const Slot &s = slots_[i];
    UNISTC_ASSERT(m < s.spec.fanout(), "model index ", m,
                  " out of range for job ", i);
    if (s.results.empty()) {
        // A job that never ran its attempt loop (defensive; the
        // quarantine path always fills results).
        return s.result;
    }
    return s.results[m];
}

const PipelineCounters &
SweepExecutor::countersOf(std::size_t i) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::countersOf before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    return slots_[i].counters;
}

const PipelineCounters &
SweepExecutor::pipelineCounters() const
{
    UNISTC_ASSERT(merged_,
                  "SweepExecutor::pipelineCounters before wait()");
    return engineCounters_;
}

SweepExecutor::JobOutcome
SweepExecutor::outcome(std::size_t i) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::outcome before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    const Slot &s = slots_[i];
    JobOutcome out;
    out.ok = !s.failed;
    out.timedOut = s.timedOut;
    out.attempts = std::max(1, s.attempts);
    out.error = s.error;
    return out;
}

SweepExecutor::RecoveryCounters
SweepExecutor::recoveryCounters() const
{
    UNISTC_ASSERT(merged_,
                  "SweepExecutor::recoveryCounters before wait()");
    RecoveryCounters rc;
    for (const Slot &s : slots_) {
        rc.faultsDetected += static_cast<std::uint64_t>(
            s.failed ? s.attempts : std::max(0, s.attempts - 1));
        rc.jobsRetried += static_cast<std::uint64_t>(
            std::max(0, s.attempts - 1));
        if (s.failed)
            ++rc.jobsQuarantined;
        if (s.timedOut)
            ++rc.jobsTimedOut;
    }
    return rc;
}

const StatRegistry &
SweepExecutor::stats() const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::stats before wait()");
    return stats_;
}

const TraceSink *
SweepExecutor::trace() const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::trace before wait()");
    return mergedTrace_.get();
}

int
SweepExecutor::resolveJobs(int requested, int fallback)
{
    if (requested > 0)
        return requested;
    const char *env = std::getenv("UNISTC_JOBS");
    if (env != nullptr && *env != '\0') {
        const std::string text(env);
        if (text == "0" || text == "auto")
            return ThreadPool::hardwareThreads();
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != nullptr && *end == '\0' && v > 0)
            return static_cast<int>(std::min<long>(v, kMaxJobs));
        UNISTC_WARN("ignoring bad UNISTC_JOBS '", text,
                    "' (want a positive integer or 'auto')");
    }
    return fallback;
}

} // namespace unistc
