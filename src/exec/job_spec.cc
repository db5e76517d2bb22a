#include "exec/job_spec.hh"

#include "common/logging.hh"
#include "engine/kernel_pipeline.hh"

namespace unistc
{

std::vector<RunResult>
runLineup(Kernel kernel, const PlanInputs &in,
          const std::vector<const StcModel *> &models,
          const EnergyModel &energy,
          const std::vector<TraceSink *> &traces,
          PipelineCounters *counters)
{
    const KernelPlanPtr plan = makeKernelPlan(kernel, in);
    std::vector<KernelPipeline::ModelSlot> slots;
    slots.reserve(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        slots.push_back(
            {models[m], m < traces.size() ? traces[m] : nullptr});
    }
    return KernelPipeline::run(*plan, slots, energy, counters);
}

std::vector<RunResult>
JobSpec::run(const std::vector<TraceSink *> &traces,
             PipelineCounters *counters) const
{
    UNISTC_ASSERT(a != nullptr, "JobSpec without an A operand: ",
                  label());
    PlanInputs in;
    in.a = a.get();
    in.b = b ? b.get() : a.get();
    in.x = x.get();
    in.bCols = bCols;
    std::vector<const StcModel *> lineup;
    lineup.reserve(models.size());
    for (const auto &m : models)
        lineup.push_back(m.get());
    return runLineup(kernel, in, lineup, EnergyModel(energy), traces,
                     counters);
}

std::string
JobSpec::label() const
{
    std::string names;
    for (std::size_t m = 0; m < models.size(); ++m) {
        if (m > 0)
            names += "+";
        names += models[m]->name();
    }
    return std::string(toString(kernel)) + " " + names + " @ " +
           matrix;
}

} // namespace unistc
