#include "driver/kernel_run.hh"

#include "common/logging.hh"
#include "driver/execution_context.hh"
#include "exec/job_spec.hh"

namespace unistc
{
namespace driver
{

namespace
{

/**
 * The one kernel-run path: plan, replay or serial by the active
 * context's sweep mode. The serial branch runs the caller's own
 * models on the Prepared's own operands. @p recordEngine adds the
 * pass's "engine" ResultLog entry.
 */
std::vector<RunResult>
runOnContext(Kernel kernel, const std::vector<const StcModel *> &models,
             const Prepared &p, const EnergyModel &energy, int bCols,
             bool recordEngine, PipelineCounters *counters_out)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    UNISTC_ASSERT(!models.empty(),
                  "a kernel run needs at least one model");

    if (session.mode() == SweepSession::Mode::Plan) {
        if (counters_out != nullptr)
            *counters_out = PipelineCounters{};
        return session.plan(kernel, models, p, energy, bCols);
    }

    PipelineCounters counters;
    std::vector<RunResult> results;
    if (session.mode() == SweepSession::Mode::Replay) {
        results = session.replay(kernel, models, p, counters);
    } else {
        PlanInputs in;
        in.a = &p.bbc;
        in.b = &p.bbc; // SpGEMM: C = A * A.
        in.x = &p.x50;
        in.bCols = bCols;
        results = runLineup(kernel, in, models, energy, {}, &counters);
    }
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
          const EnergyModel &energy, int bCols)
{
    std::vector<RunResult> results =
        runOnContext(kernel, {&model}, p, energy, bCols,
                     /*recordEngine=*/false, nullptr);
    return std::move(results.front());
}

std::vector<RunResult>
runKernelLineup(Kernel kernel,
                const std::vector<const StcModel *> &models,
                const Prepared &p, const EnergyModel &energy,
                bool /*record_timing*/, PipelineCounters *counters_out,
                int bCols)
{
    return runOnContext(kernel, models, p, energy, bCols,
                        /*recordEngine=*/true, counters_out);
}

} // namespace driver
} // namespace unistc
