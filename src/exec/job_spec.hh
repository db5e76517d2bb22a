/**
 * @file
 * Self-contained description of one simulation job — a kernel, a
 * lineup of one or more model instances fed from one task stream,
 * shared immutable operands and energy parameters — captured by
 * value or shared immutable pointer, so the job can execute on any
 * thread at any time and always produce the identical RunResults.
 *
 * runLineup() is the one plan-and-pipeline setup behind every
 * simulation the driver runs: JobSpec::run() calls it on its model
 * clones and shared operands, and the driver's serial path calls it
 * on the caller's own models and operands.
 */

#ifndef UNISTC_EXEC_JOB_SPEC_HH
#define UNISTC_EXEC_JOB_SPEC_HH

#include <memory>
#include <string>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "runner/block_driver.hh"
#include "runner/report.hh"
#include "sim/energy.hh"
#include "sparse/sparse_vector.hh"
#include "stc/stc_model.hh"

namespace unistc
{

class TraceSink;
struct PipelineCounters;

/**
 * Plan @p kernel over @p in and run the plan through every model of
 * @p models in a single pass over one task stream
 * (KernelPipeline::run). Returns one finalized RunResult per model,
 * in lineup order. Model m is traced into @p traces[m] when that
 * entry exists and is non-null; @p counters, when given, receives
 * the engine's per-layer counters.
 */
std::vector<RunResult>
runLineup(Kernel kernel, const PlanInputs &in,
          const std::vector<const StcModel *> &models,
          const EnergyModel &energy,
          const std::vector<TraceSink *> &traces = {},
          PipelineCounters *counters = nullptr);

/**
 * One (kernel, lineup, matrix) simulation job. Operands are shared
 * immutable pointers so a sweep over one matrix does not copy it per
 * job. Determinism contract: run() is a pure function of the spec —
 * two executions of the same spec, on any threads in any order,
 * produce bitwise-identical RunResults.
 */
struct JobSpec
{
    Kernel kernel = Kernel::SpMV;

    /** Matrix display name (result logs, trace process names). */
    std::string matrix;

    /**
     * The lineup: one or more exact model instances (usually
     * clone()s of the caller's models, preserving non-config knobs),
     * all fed from one task stream.
     */
    std::vector<std::shared_ptr<const StcModel>> models;

    /** Left operand (all kernels). */
    std::shared_ptr<const BbcMatrix> a;

    /** SpGEMM right operand; null means C = A * A. */
    std::shared_ptr<const BbcMatrix> b;

    /** SpMSpV input vector (required for SpMSpV). */
    std::shared_ptr<const SparseVector> x;

    /** Dense-B width for SpMM (the paper fixes 64). */
    int bCols = 64;

    /** Energy model parameters (EnergyModel is stateless besides). */
    EnergyParams energy{};

    /**
     * Execute the job through runLineup(): one finalized RunResult
     * per lineup model. @p traces, when non-empty, supplies one
     * optional sink per model; @p counters, when given, receives the
     * engine's per-layer counters.
     */
    std::vector<RunResult>
    run(const std::vector<TraceSink *> &traces = {},
        PipelineCounters *counters = nullptr) const;

    /** "kernel model[+model...] @ matrix" label for logs/errors. */
    std::string label() const;
};

} // namespace unistc

#endif // UNISTC_EXEC_JOB_SPEC_HH
