#include "engine/kernel_pipeline.hh"

#include <algorithm>
#include <array>

#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "runner/block_driver.hh"

namespace unistc
{

void
PipelineCounters::registerStats(StatRegistry &reg,
                                const std::string &prefix) const
{
    reg.setCounter(prefix + "tasks_generated", tasksGenerated,
                   "T1 tasks pulled from the stream (once per "
                   "(kernel, matrix), however many models run)");
    reg.setCounter(prefix + "models_fanout", modelsFanout,
                   "models each generated task was fanned out to");
    reg.setCounter(prefix + "stream_peak_live_tasks", peakLiveTasks,
                   "peak tasks alive between generation and "
                   "consumption (1 = fully lazy)");
}

namespace
{

/**
 * The counters of a RunResult as plain words: what one runBlock()
 * call adds is the difference of two snapshots. energy is left out,
 * because only finalizeRun() fills it in.
 */
struct TaskCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t products = 0;
    std::uint64_t macSlots = 0;
    std::uint64_t tasksT1 = 0;
    std::uint64_t tasksT3 = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t dpgActiveAccum = 0;
    std::uint64_t cNetScaleAccum = 0;
    std::array<std::uint64_t, RunResult::kUtilBuckets> util{};
    TrafficCounters traffic;

    static TaskCounters
    of(const RunResult &res)
    {
        TaskCounters c;
        c.cycles = res.cycles;
        c.products = res.products;
        c.macSlots = res.macSlots;
        c.tasksT1 = res.tasksT1;
        c.tasksT3 = res.tasksT3;
        c.stallCycles = res.stallCycles;
        c.dpgActiveAccum = res.dpgActiveAccum;
        c.cNetScaleAccum = res.cNetScaleAccum;
        for (int b = 0; b < RunResult::kUtilBuckets; ++b)
            c.util[b] = res.utilHist.bucketCount(b);
        c.traffic = res.traffic;
        return c;
    }

    /** The counters added between @p before and these. */
    TaskCounters
    since(const TaskCounters &before) const
    {
        TaskCounters d;
        d.cycles = cycles - before.cycles;
        d.products = products - before.products;
        d.macSlots = macSlots - before.macSlots;
        d.tasksT1 = tasksT1 - before.tasksT1;
        d.tasksT3 = tasksT3 - before.tasksT3;
        d.stallCycles = stallCycles - before.stallCycles;
        d.dpgActiveAccum = dpgActiveAccum - before.dpgActiveAccum;
        d.cNetScaleAccum = cNetScaleAccum - before.cNetScaleAccum;
        for (int b = 0; b < RunResult::kUtilBuckets; ++b)
            d.util[b] = util[b] - before.util[b];
        d.traffic.readsA = traffic.readsA - before.traffic.readsA;
        d.traffic.wastedA = traffic.wastedA - before.traffic.wastedA;
        d.traffic.readsB = traffic.readsB - before.traffic.readsB;
        d.traffic.wastedB = traffic.wastedB - before.traffic.wastedB;
        d.traffic.writesC = traffic.writesC - before.traffic.writesC;
        return d;
    }

    /** Add these counters to @p res once. */
    void
    addTo(RunResult &res) const
    {
        res.cycles += cycles;
        res.products += products;
        res.macSlots += macSlots;
        res.tasksT1 += tasksT1;
        res.tasksT3 += tasksT3;
        res.stallCycles += stallCycles;
        res.dpgActiveAccum += dpgActiveAccum;
        res.cNetScaleAccum += cNetScaleAccum;
        for (int b = 0; b < RunResult::kUtilBuckets; ++b)
            res.utilHist.addToBucket(b, util[b]);
        res.traffic.merge(traffic);
    }
};

/** Per-model state of one pass. */
struct SlotState
{
    RunResult res;
    std::uint64_t groupStart = 0; ///< res.cycles when the group began.
    TaskCounters marked; ///< What the last marked task added to res.
};

} // namespace

std::vector<RunResult>
KernelPipeline::run(const KernelPlan &plan,
                    const std::vector<ModelSlot> &slots,
                    const EnergyModel &energy,
                    PipelineCounters *counters)
{
    const auto stream = plan.stream();
    std::vector<SlotState> state(slots.size());
    const char *kernel_name = toString(plan.kernel());
    for (const auto &slot : slots) {
        UNISTC_TRACE_BEGIN(slot.trace, TraceTrack::Runner,
                           kernel_name, 0);
    }

    std::uint64_t tasks = 0;
    std::uint32_t repeats_left = 0; ///< Copies of the marked task due.
    bool group_open = false;
    std::int64_t group = 0;

    StreamedTask item;
    while (stream->next(item)) {
        if (!group_open || item.group != group) {
            // Close the previous runner-track span and open the next
            // one at each model's current virtual clock — exactly the
            // spans the eager runners emitted.
            for (std::size_t i = 0; i < slots.size(); ++i) {
                if (slots[i].trace == nullptr)
                    continue;
                if (group_open) {
                    UNISTC_TRACE_COMPLETE(
                        slots[i].trace, TraceTrack::Runner,
                        stream->groupLabel(group),
                        state[i].groupStart,
                        state[i].res.cycles - state[i].groupStart);
                }
                state[i].groupStart = state[i].res.cycles;
            }
            group = item.group;
            group_open = true;
        }
        // A marked task is repeated by the next item.repeats items.
        // An untraced slot simulates it once and adds its counters
        // again for each repeat: the models are pure per-task
        // functions. A traced slot simulates every copy, so its spans
        // keep their place on the virtual clock.
        const bool repeat = repeats_left > 0;
        repeats_left = repeat ? repeats_left - 1 : item.repeats;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            SlotState &s = state[i];
            if (slots[i].trace != nullptr) {
                slots[i].model->runBlock(item.task, s.res,
                                         slots[i].trace);
            } else if (repeat) {
                s.marked.addTo(s.res);
            } else if (item.repeats > 0) {
                const TaskCounters before = TaskCounters::of(s.res);
                slots[i].model->runBlock(item.task, s.res, nullptr);
                s.marked = TaskCounters::of(s.res).since(before);
            } else {
                slots[i].model->runBlock(item.task, s.res, nullptr);
            }
        }
        ++tasks;
    }

    std::vector<RunResult> results;
    results.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (group_open && slots[i].trace != nullptr) {
            UNISTC_TRACE_COMPLETE(
                slots[i].trace, TraceTrack::Runner,
                stream->groupLabel(group), state[i].groupStart,
                state[i].res.cycles - state[i].groupStart);
        }
        UNISTC_TRACE_END(slots[i].trace, TraceTrack::Runner,
                         state[i].res.cycles);
        finalizeRun(*slots[i].model, energy, state[i].res);
        results.push_back(std::move(state[i].res));
    }

    if (counters != nullptr) {
        counters->tasksGenerated += tasks;
        counters->modelsFanout =
            static_cast<std::uint64_t>(slots.size());
        counters->peakLiveTasks =
            std::max<std::uint64_t>(counters->peakLiveTasks,
                                    tasks > 0 ? 1 : 0);
    }
    return results;
}

RunResult
KernelPipeline::runOne(const KernelPlan &plan, const StcModel &model,
                       const EnergyModel &energy, TraceSink *trace,
                       PipelineCounters *counters)
{
    std::vector<ModelSlot> slots{{&model, trace}};
    return run(plan, slots, energy, counters)[0];
}

} // namespace unistc
