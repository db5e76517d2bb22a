#include "exec/sweep_executor.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "obs/metrics_export.hh"

namespace unistc
{

namespace
{

/** Base mixed into auto-assigned per-job seeds. */
constexpr std::uint64_t kJobSeedBase = 0x5EEDBA5Eu;

} // namespace

SweepExecutor::SweepExecutor() : SweepExecutor(Options()) {}

SweepExecutor::SweepExecutor(const Options &opt)
    : opt_(opt), pool_(opt.jobs <= 1 ? 0 : opt.jobs)
{
}

SweepExecutor::~SweepExecutor() { pool_.wait(); }

void
SweepExecutor::makeSinks(Slot &slot)
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
    Slot *slot = &slots_.emplace_back();
    slot->spec = std::move(spec);
    slot->pidBase = nextPid_;
    nextPid_ += static_cast<int>(slot->spec.fanout());
    makeSinks(*slot);
    pool_.submit([this, slot] { runSlot(*slot); });
    return index;
}

void
SweepExecutor::runSlot(Slot &slot)
{
    try {
        if (slot.spec.fanout() > 1) {
            // Multi-model job: one pass over one task stream, every
            // task fanned out to the whole lineup.
            std::vector<TraceSink *> traces;
            if (slot.sink != nullptr) {
                traces.push_back(slot.sink.get());
                for (const auto &s : slot.extraSinks)
                    traces.push_back(s.get());
            }
            slot.results = slot.spec.runMulti(traces, &slot.counters);
        } else {
            slot.results.push_back(slot.spec.run(slot.sink.get()));
        }
    } catch (const UnistcError &e) {
        slot.error = Status(e.code(), "job " + slot.spec.label() +
                                          " failed: " +
                                          e.status().message());
    } catch (const std::exception &e) {
        slot.error = internalError("job " + slot.spec.label() +
                                   " failed: " + e.what());
    }
}

void
SweepExecutor::wait()
{
    pool_.wait();
    if (merged_)
        return;

    // A failed job fails the sweep: surface the first failure in
    // submission order through raise() (throw or exit per
    // FatalBehavior) before any merging happens.
    for (const Slot &s : slots_) {
        if (!s.error.ok())
            raise(s.error);
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
                const RunResult &res = s.results[m];
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
    return resultOf(i, 0);
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
