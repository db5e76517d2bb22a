#include "exec/sweep_executor.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace unistc
{

SweepExecutor::SweepExecutor(const Options &opt)
    : opt_(opt), pool_(opt.jobs <= 1 ? 0 : opt.jobs)
{
}

SweepExecutor::~SweepExecutor() { pool_.wait(); }

std::size_t
SweepExecutor::submit(JobSpec spec)
{
    UNISTC_ASSERT(!merged_,
                  "SweepExecutor::submit after wait(): start a new "
                  "executor for a new sweep");
    const std::size_t index = slots_.size();
    Slot *slot = &slots_.emplace_back();
    slot->spec = std::move(spec);
    if (opt_.tracePerJob > 0) {
        // One trace process per lineup model, pids in submission
        // order: a sweep of one-model jobs keeps pid == job index.
        for (const auto &model : slot->spec.models) {
            slot->sinks.push_back(
                std::make_unique<TraceSink>(opt_.tracePerJob));
            slot->sinks.back()->setProcess(
                nextPid_++, model->name() + " | " + slot->spec.matrix);
        }
    }
    pool_.submit([this, slot] { runSlot(*slot); });
    return index;
}

void
SweepExecutor::runSlot(Slot &slot)
{
    try {
        std::vector<TraceSink *> traces;
        traces.reserve(slot.sinks.size());
        for (const auto &s : slot.sinks)
            traces.push_back(s.get());
        slot.results = slot.spec.run(traces, &slot.counters);
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
    if (opt_.tracePerJob > 0) {
        std::size_t total = 0;
        for (const Slot &s : slots_) {
            for (const auto &sink : s.sinks)
                total += sink->size();
        }
        mergedTrace_ =
            std::make_unique<TraceSink>(std::max<std::size_t>(total,
                                                              1));
        for (const Slot &s : slots_) {
            for (const auto &sink : s.sinks)
                mergedTrace_->mergeFrom(*sink);
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
SweepExecutor::resultOf(std::size_t i, std::size_t m) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::resultOf before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    const Slot &s = slots_[i];
    UNISTC_ASSERT(m < s.results.size(), "model index ", m,
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
