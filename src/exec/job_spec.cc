#include "exec/job_spec.hh"

#include "common/logging.hh"
#include "engine/kernel_pipeline.hh"
#include "runner/block_driver.hh"
#include "stc/registry.hh"

namespace unistc
{

namespace
{

/** Mix so adjacent seeds give unrelated streams (SplitMix64 core). */
std::uint64_t
mixSeed(std::uint64_t s)
{
    s += 0x9E3779B97F4A7C15ull;
    s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9ull;
    s = (s ^ (s >> 27)) * 0x94D049BB133111EBull;
    return s ^ (s >> 31);
}

} // namespace

Rng
JobSpec::rng() const
{
    return Rng(mixSeed(seed));
}

const std::string &
JobSpec::modelName(std::size_t m) const
{
    if (lineup.empty()) {
        UNISTC_ASSERT(m == 0, "model index ", m,
                      " on a single-model job");
        return model;
    }
    UNISTC_ASSERT(m < lineup.size(), "model index ", m,
                  " out of range");
    return lineup[m].name;
}

RunResult
JobSpec::run(TraceSink *trace) const
{
    std::vector<RunResult> results = runMulti({trace});
    return std::move(results.front());
}

std::vector<RunResult>
JobSpec::runMulti(const std::vector<TraceSink *> &traces,
                  PipelineCounters *counters) const
{
    UNISTC_ASSERT(a != nullptr, "JobSpec without an A operand: ",
                  label());

    // Resolve the model lineup: clones passed in by the caller, or
    // registry constructions from (name, config).
    std::vector<StcModelPtr> owned;
    std::vector<const StcModel *> models;
    if (lineup.empty()) {
        const StcModel *m = impl.get();
        if (m == nullptr) {
            owned.push_back(makeStcModel(model, config));
            m = owned.back().get();
        }
        models.push_back(m);
    } else {
        for (const ModelSpec &entry : lineup) {
            const StcModel *m = entry.impl.get();
            if (m == nullptr) {
                owned.push_back(makeStcModel(entry.name,
                                             entry.config));
                m = owned.back().get();
            }
            models.push_back(m);
        }
    }

    // Operands. A null b means C = A * A; a null x synthesizes the
    // paper's standard 50 %-sparse vector (§VI-A) from this job's
    // own RNG stream, so it depends on the seed, never the thread.
    PlanInputs in;
    in.a = a.get();
    in.b = b ? b.get() : a.get();
    in.bCols = bCols;
    SparseVector synth;
    const SparseVector *xv = x.get();
    if (kernel == Kernel::SpMSpV && xv == nullptr) {
        Rng r = rng();
        synth = SparseVector(a->cols());
        for (int i = 0; i < a->cols(); ++i) {
            if (r.nextBool(0.5))
                synth.push(i, r.nextDouble(0.1, 1.0));
        }
        xv = &synth;
    }
    in.x = xv;

    const KernelPlanPtr plan = makeKernelPlan(kernel, in);
    std::vector<KernelPipeline::ModelSlot> slots;
    slots.reserve(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        slots.push_back(
            {models[m], m < traces.size() ? traces[m] : nullptr});
    }
    return KernelPipeline::run(*plan, slots, EnergyModel(energy),
                               counters);
}

std::string
JobSpec::label() const
{
    std::string names;
    for (std::size_t m = 0; m < fanout(); ++m) {
        if (m > 0)
            names += "+";
        names += modelName(m);
    }
    return std::string(toString(kernel)) + " " + names + " @ " +
           matrix;
}

} // namespace unistc
