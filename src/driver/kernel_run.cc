#include "driver/kernel_run.hh"

#include "common/logging.hh"
#include "driver/execution_context.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmm_runner.hh"
#include "runner/spmspv_runner.hh"
#include "runner/spmv_runner.hh"

namespace unistc
{
namespace driver
{

RunResult
executeKernel(Kernel kernel, const StcModel &model, const Prepared &p,
              const EnergyModel &energy, int bCols)
{
    switch (kernel) {
      case Kernel::SpMV:
        return runSpmv(model, p.bbc, energy);
      case Kernel::SpMSpV:
        return runSpmspv(model, p.bbc, p.x50, energy);
      case Kernel::SpMM:
        return runSpmm(model, p.bbc, bCols, energy);
      case Kernel::SpGEMM:
        return runSpgemm(model, p.bbc, p.bbc, energy);
    }
    UNISTC_PANIC("executeKernel: unknown kernel");
}

RunResult
runKernel(Kernel kernel, const StcModel &model, const Prepared &p,
          const EnergyModel &energy, int bCols)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    if (session.mode() == SweepSession::Mode::Plan)
        return session.plan(kernel, model, p, energy, bCols);

    const RunResult res =
        session.mode() == SweepSession::Mode::Replay
            ? session.replay(kernel, model, p)
            : executeKernel(kernel, model, p, energy, bCols);
    ctx.results().record(kernel, model.name(), p.name, res);
    return res;
}

std::vector<RunResult>
runKernelLineup(Kernel kernel,
                const std::vector<const StcModel *> &models,
                const Prepared &p, const EnergyModel &energy,
                bool /*record_timing*/, PipelineCounters *counters_out,
                int bCols)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    UNISTC_ASSERT(!models.empty(),
                  "runKernelLineup needs at least one model");

    if (session.mode() == SweepSession::Mode::Plan) {
        if (counters_out != nullptr)
            *counters_out = PipelineCounters{};
        return session.planLineup(kernel, models, p, energy, bCols);
    }

    PipelineCounters counters;
    std::vector<RunResult> results;
    if (session.mode() == SweepSession::Mode::Replay) {
        results = session.replayLineup(kernel, models, p, &counters);
    } else {
        PlanInputs in;
        in.a = &p.bbc;
        in.b = &p.bbc; // SpGEMM: C = A * A, like runKernel().
        in.x = &p.x50;
        in.bCols = bCols;
        const KernelPlanPtr plan = makeKernelPlan(kernel, in);
        std::vector<KernelPipeline::ModelSlot> slots;
        slots.reserve(models.size());
        for (const StcModel *m : models)
            slots.push_back({m, nullptr});
        results = KernelPipeline::run(*plan, slots, energy, &counters);
    }
    ctx.results().recordEngine(kernel, p.name, counters);
    if (counters_out != nullptr)
        *counters_out = counters;
    for (std::size_t m = 0; m < models.size(); ++m) {
        ctx.results().record(kernel, models[m]->name(), p.name,
                             results[m]);
    }
    return results;
}

} // namespace driver
} // namespace unistc
