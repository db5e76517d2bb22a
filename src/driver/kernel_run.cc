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
          const EnergyModel &energy, int bCols, RunInfo *info)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    CheckpointSession &ckpt = ctx.checkpoints();
    if (info != nullptr)
        *info = RunInfo();
    // --resume: a checkpointed job is served from the file in every
    // mode and never submitted/simulated. The plan and replay passes
    // ask in the same order, so the occurrence cursors stay aligned.
    const CheckpointEntry *hit =
        ckpt.lookup(kernel, model.name(), p.name);
    if (hit != nullptr && info != nullptr)
        info->resumed = true;

    if (hit != nullptr) {
        if (session.mode() == SweepSession::Mode::Plan)
            return hit->result;
        ctx.results().record(kernel, model.name(), p.name,
                             hit->result);
        return hit->result;
    }
    if (session.mode() == SweepSession::Mode::Plan)
        return session.plan(kernel, model, p, energy, bCols);

    RunResult res;
    if (session.mode() == SweepSession::Mode::Replay)
        res = session.replay(kernel, model, p, info);
    else
        res = executeKernel(kernel, model, p, energy, bCols);
    // Newly computed (not resumed) results extend the checkpoint;
    // this runs in the serial replay / Off paths only, so entries
    // land in deterministic body order.
    ckpt.append(kernel, model.name(), p.name, res);
    ctx.results().record(kernel, model.name(), p.name, res);
    return res;
}

std::vector<RunResult>
runKernelLineup(Kernel kernel,
                const std::vector<const StcModel *> &models,
                const Prepared &p, const EnergyModel &energy,
                bool /*record_timing*/, PipelineCounters *counters_out,
                int bCols, std::vector<RunInfo> *infos)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    CheckpointSession &ckpt = ctx.checkpoints();
    const std::size_t n = models.size();
    UNISTC_ASSERT(n > 0, "runKernelLineup needs at least one model");
    if (infos != nullptr)
        infos->assign(n, RunInfo());

    // --resume: serve checkpointed models from the file and fan the
    // stream out only to the missing tail of the lineup. Lookups
    // advance the per-key occurrence cursors in every mode, so the
    // plan and replay passes stay aligned.
    std::vector<RunResult> results(n);
    std::vector<bool> from_ckpt(n, false);
    std::vector<const StcModel *> missing;
    std::vector<std::size_t> missing_idx;
    for (std::size_t m = 0; m < n; ++m) {
        if (const CheckpointEntry *hit =
                ckpt.lookup(kernel, models[m]->name(), p.name)) {
            results[m] = hit->result;
            from_ckpt[m] = true;
            if (infos != nullptr)
                (*infos)[m].resumed = true;
        } else {
            missing.push_back(models[m]);
            missing_idx.push_back(m);
        }
    }

    if (session.mode() == SweepSession::Mode::Plan) {
        if (counters_out != nullptr)
            *counters_out = PipelineCounters{};
        if (!missing.empty()) {
            const std::vector<RunResult> planned =
                session.planLineup(kernel, missing, p, energy, bCols);
            for (std::size_t k = 0; k < missing_idx.size(); ++k)
                results[missing_idx[k]] = planned[k];
        }
        return results;
    }

    PipelineCounters counters;
    if (!missing.empty()) {
        if (session.mode() == SweepSession::Mode::Replay) {
            std::vector<RunInfo> missingInfos;
            const std::vector<RunResult> ran = session.replayLineup(
                kernel, missing, p, &counters,
                infos != nullptr ? &missingInfos : nullptr);
            for (std::size_t k = 0; k < missing_idx.size(); ++k) {
                results[missing_idx[k]] = ran[k];
                if (infos != nullptr)
                    (*infos)[missing_idx[k]] = missingInfos[k];
            }
        } else {
            PlanInputs in;
            in.a = &p.bbc;
            in.b = &p.bbc; // SpGEMM: C = A * A, like runKernel().
            in.x = &p.x50;
            in.bCols = bCols;
            const KernelPlanPtr plan = makeKernelPlan(kernel, in);
            std::vector<KernelPipeline::ModelSlot> slots;
            slots.reserve(missing.size());
            for (const StcModel *m : missing)
                slots.push_back({m, nullptr});
            const std::vector<RunResult> ran = KernelPipeline::run(
                *plan, slots, energy, &counters);
            for (std::size_t k = 0; k < missing_idx.size(); ++k)
                results[missing_idx[k]] = ran[k];
        }
        ctx.results().recordEngine(kernel, p.name, counters);
    }
    if (counters_out != nullptr)
        *counters_out = counters;

    for (std::size_t m = 0; m < n; ++m) {
        if (!from_ckpt[m]) {
            ckpt.append(kernel, models[m]->name(), p.name,
                        results[m]);
        }
        ctx.results().record(kernel, models[m]->name(), p.name,
                             results[m]);
    }
    return results;
}

} // namespace driver
} // namespace unistc
