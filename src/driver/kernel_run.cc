#include "driver/kernel_run.hh"

#include "common/logging.hh"
#include "driver/execution_context.hh"
#include "runner/block_driver.hh"

namespace unistc
{
namespace driver
{

namespace
{

/**
 * The one kernel-run path: plan @p kernel over the Prepared's own
 * operands and run the caller's own models through one pipeline
 * pass, model m traced into @p traces[m] when that entry exists and
 * is non-null. Records the results in the active context;
 * @p recordEngine adds the pass's "engine" ResultLog entry.
 */
std::vector<RunResult>
runOnContext(Kernel kernel, const std::vector<const StcModel *> &models,
             const Prepared &p, const EnergyModel &energy, int bCols,
             const std::vector<TraceSink *> &traces, bool recordEngine,
             PipelineCounters *counters_out)
{
    UNISTC_ASSERT(!models.empty(),
                  "a kernel run needs at least one model");
    PlanInputs in;
    in.a = &p.bbc;
    in.b = &p.bbc; // SpGEMM: C = A * A.
    in.x = &p.x50;
    in.bCols = bCols;
    const KernelPlanPtr plan = makeKernelPlan(kernel, in);
    std::vector<KernelPipeline::ModelSlot> slots;
    slots.reserve(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        slots.push_back(
            {models[m], m < traces.size() ? traces[m] : nullptr});
    }
    PipelineCounters counters;
    std::vector<RunResult> results =
        KernelPipeline::run(*plan, slots, energy, &counters);

    ExecutionContext &ctx = ExecutionContext::active();
    if (recordEngine)
        ctx.results().recordEngine(kernel, p.name, counters);
    if (counters_out != nullptr)
        *counters_out = counters;
    for (std::size_t m = 0; m < models.size(); ++m) {
        ctx.results().record(kernel, models[m]->name(), p.name,
                             results[m]);
    }
    return results;
}

} // namespace

RunResult
runKernel(Kernel kernel, const StcModel &model, const Prepared &p,
          const EnergyModel &energy, int bCols, TraceSink *trace)
{
    std::vector<RunResult> results =
        runOnContext(kernel, {&model}, p, energy, bCols, {trace},
                     /*recordEngine=*/false, nullptr);
    return std::move(results.front());
}

std::vector<RunResult>
runKernelLineup(Kernel kernel,
                const std::vector<const StcModel *> &models,
                const Prepared &p, const EnergyModel &energy,
                bool /*record_timing*/, PipelineCounters *counters_out,
                int bCols, const std::vector<TraceSink *> &traces)
{
    return runOnContext(kernel, models, p, energy, bCols, traces,
                        /*recordEngine=*/true, counters_out);
}

} // namespace driver
} // namespace unistc
