/**
 * @file
 * Self-contained description of one simulation job — everything a
 * worker thread needs to run (kernel, model, operands, energy
 * parameters, RNG seed) captured by value or shared immutable
 * pointer, so the job can execute on any thread at any time and
 * always produce the identical RunResult.
 */

#ifndef UNISTC_EXEC_JOB_SPEC_HH
#define UNISTC_EXEC_JOB_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "common/rng.hh"
#include "runner/report.hh"
#include "sim/config.hh"
#include "sim/energy.hh"
#include "sparse/sparse_vector.hh"
#include "stc/stc_model.hh"

namespace unistc
{

class TraceSink;
struct PipelineCounters;

/**
 * One architecture of a multi-model job lineup: registry name plus
 * either a machine configuration (the job builds makeStcModel) or an
 * exact instance to simulate on.
 */
struct ModelSpec
{
    std::string name;
    MachineConfig config = MachineConfig::fp64();
    std::shared_ptr<const StcModel> impl;
};

/**
 * One (kernel, model, matrix) simulation job. Operands are shared
 * immutable pointers so a sweep over one matrix does not copy it per
 * job. Determinism contract: run() is a pure function of the spec —
 * two executions of the same spec, on any threads in any order,
 * produce bitwise-identical RunResults.
 */
struct JobSpec
{
    Kernel kernel = Kernel::SpMV;

    /** Display / registry name of the architecture. */
    std::string model;

    /** Machine configuration (used when @ref impl is null). */
    MachineConfig config = MachineConfig::fp64();

    /** Matrix display name (stats keys, result logs). */
    std::string matrix;

    /**
     * Exact model instance to simulate on (usually a clone() of the
     * caller's model, preserving non-config knobs). When null the
     * job constructs makeStcModel(model, config) instead.
     */
    std::shared_ptr<const StcModel> impl;

    /** Left operand (all kernels). */
    std::shared_ptr<const BbcMatrix> a;

    /** SpGEMM right operand; null means C = A * A. */
    std::shared_ptr<const BbcMatrix> b;

    /**
     * SpMSpV input vector; when null the job synthesizes the paper's
     * standard 50 %-sparse x from this job's own RNG stream (see
     * rng()), so the vector depends on the job seed, never on which
     * thread runs the job.
     */
    std::shared_ptr<const SparseVector> x;

    /** Dense-B width for SpMM (the paper fixes 64). */
    int bCols = 64;

    /** Energy model parameters (EnergyModel is stateless besides). */
    EnergyParams energy{};

    /**
     * Per-job RNG seed. SweepExecutor derives one from the submission
     * index when left at zero, giving every job its own stream
     * regardless of worker count ("seeded per-job, not per-thread").
     */
    std::uint64_t seed = 0;

    /**
     * Multi-architecture lineup. Empty (the default) means a single-
     * model job described by @ref model / @ref config / @ref impl.
     * Non-empty means runMulti() opens the kernel's task stream ONCE
     * and fans every generated task out to all lineup entries in a
     * single pass (engine/kernel_pipeline.hh); model/config/impl are
     * then ignored.
     */
    std::vector<ModelSpec> lineup;

    /** Models this job simulates (1 unless @ref lineup is set). */
    std::size_t fanout() const
    {
        return lineup.empty() ? 1 : lineup.size();
    }

    /** Display name of model @p m (@ref model for single jobs). */
    const std::string &modelName(std::size_t m) const;

    /** This job's private RNG stream. */
    Rng rng() const;

    /**
     * Execute the job: build the model (clone or registry), run the
     * kernel, return the finalized RunResult. @p trace, when given,
     * receives the job's pipeline events. For a multi-model job this
     * is runMulti() with only the first model traced, returning the
     * first model's result.
     */
    RunResult run(TraceSink *trace = nullptr) const;

    /**
     * Execute the job's plan through every model of the lineup in a
     * single pass over one task stream, returning one finalized
     * RunResult per model (lineup order; one result for single-model
     * jobs). Each result is bit-identical to a run() of the same spec
     * restricted to that model. @p traces, when non-empty, supplies
     * one optional sink per model; @p counters, when given, receives
     * the engine's per-layer counters.
     */
    std::vector<RunResult>
    runMulti(const std::vector<TraceSink *> &traces = {},
             PipelineCounters *counters = nullptr) const;

    /** "kernel model[+model...] @ matrix" label for logs/errors. */
    std::string label() const;
};

} // namespace unistc

#endif // UNISTC_EXEC_JOB_SPEC_HH
