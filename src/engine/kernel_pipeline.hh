/**
 * @file
 * Single-pass multi-architecture execution engine. A KernelPipeline
 * drives one KernelPlan's lazy task stream through N StcModels: each
 * generated T1 task is fanned out to every registered model before
 * the next task is pulled, so a 7-architecture comparison enumerates
 * partitions and tasks exactly once — and each model's RunResult is
 * bit-identical to what a sequential one-model-at-a-time run of the
 * same plan produces (the models are pure per-task functions).
 *
 * For the same reason a task that the stream marks as repeated
 * (StreamedTask::repeats: SpMM's full-width dense B block columns)
 * is simulated once per untraced model, and its counters are added
 * again for each repeat. A model with a trace sink simulates every
 * copy, so its trace is the same as without the reuse.
 *
 * Layering (docs/ARCHITECTURE.md):
 *
 *   plan (runner/)  ->  stream (engine/)  ->  pipeline (engine/)
 *                                               |  fan-out
 *                                               v
 *                                     model[0..N) (stc/, unistc/)
 *
 * The pipeline also owns the runner-track trace spans (one span per
 * stream group, exactly as the eager runners emitted them) and
 * exports per-layer counters:
 *
 *   engine.tasks_generated       tasks pulled from the stream (once
 *                                per (kernel, matrix), however many
 *                                models run)
 *   engine.models_fanout         models each task was fanned out to
 *   engine.stream_peak_live_tasks  peak tasks alive between pull and
 *                                consumption (1 for a lazy stream —
 *                                the proof no eager vector exists)
 *
 * The pass reads no clock: every counter is deterministic. Wall-time
 * splits per layer come from perfbench's spans (perfbench/README.md).
 */

#ifndef UNISTC_ENGINE_KERNEL_PIPELINE_HH
#define UNISTC_ENGINE_KERNEL_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "engine/plan.hh"
#include "sim/energy.hh"
#include "sim/result.hh"

namespace unistc
{

class StatRegistry;
class TraceSink;

/** Per-layer counters of one pipeline pass. */
struct PipelineCounters
{
    std::uint64_t tasksGenerated = 0;   ///< Stream pulls (once, total).
    std::uint64_t modelsFanout = 0;     ///< Models driven per task.
    std::uint64_t peakLiveTasks = 0;    ///< Max tasks buffered (lazy: 1).

    /**
     * Always 0: nothing in src/ times a pass. Kept only because the
     * warehouse's EngineRow encoding and perfbench still name them.
     */
    double enumerateSeconds = 0.0;
    double modelSeconds = 0.0;

    /** Export under "<prefix>tasks_generated" etc. (default "engine."). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix = "engine.") const;
};

/** Single-pass plan-through-N-models driver. */
class KernelPipeline
{
  public:
    /** One registered model and its (optional) trace sink. */
    struct ModelSlot
    {
        const StcModel *model = nullptr;
        TraceSink *trace = nullptr;
    };

    /**
     * Run @p plan through every slot in a single pass over one task
     * stream. Returns one finalized RunResult per slot, in slot
     * order. An empty slot list just drains the stream (useful to
     * measure pure enumeration cost). @p counters, when given,
     * receives the per-layer counters of this pass.
     */
    static std::vector<RunResult>
    run(const KernelPlan &plan, const std::vector<ModelSlot> &slots,
        const EnergyModel &energy = EnergyModel(),
        PipelineCounters *counters = nullptr);

    /** Single-model convenience (the legacy runSpmv/... surface). */
    static RunResult runOne(const KernelPlan &plan,
                            const StcModel &model,
                            const EnergyModel &energy = EnergyModel(),
                            TraceSink *trace = nullptr,
                            PipelineCounters *counters = nullptr);
};

} // namespace unistc

#endif // UNISTC_ENGINE_KERNEL_PIPELINE_HH
