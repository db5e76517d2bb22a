#include "engine/kernel_pipeline.hh"

#include <algorithm>

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

/** Per-model trace-group state (mirrors the eager runners' spans). */
struct SlotState
{
    RunResult res;
    std::uint64_t groupStart = 0; ///< res.cycles when the group began.
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
        for (std::size_t i = 0; i < slots.size(); ++i) {
            slots[i].model->runBlock(item.task, state[i].res,
                                     slots[i].trace);
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
