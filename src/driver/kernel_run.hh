/**
 * @file
 * The kernel-run surface of the execution driver: a matrix prepared
 * once (Prepared), and runKernelLineup() — the one call every
 * front-end body makes per simulation — with runKernel(), its
 * one-model form. Both plan the kernel over the Prepared's own
 * operands and run the caller's own models through one
 * KernelPipeline pass, recording the results in the active
 * ExecutionContext's result log (driver/execution_context.hh).
 *
 * Bench harnesses reach them through the unistc::bench aliases in
 * bench/bench_common.hh.
 */

#ifndef UNISTC_DRIVER_KERNEL_RUN_HH
#define UNISTC_DRIVER_KERNEL_RUN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "common/rng.hh"
#include "engine/kernel_pipeline.hh"
#include "runner/report.hh"
#include "sim/result.hh"
#include "sparse/sparse_vector.hh"

namespace unistc
{
namespace driver
{

/** A matrix prepared once and reused across models and kernels. */
struct Prepared
{
    std::string name;
    CsrMatrix csr;
    BbcMatrix bbc;
    SparseVector x50; ///< 50%-sparse x for SpMSpV (§VI-A).

    Prepared(std::string n, CsrMatrix m, std::uint64_t seed = 99)
        : name(std::move(n)), csr(std::move(m)),
          bbc(BbcMatrix::fromCsr(csr)), x50(csr.cols())
    {
        Rng rng(seed);
        for (int i = 0; i < csr.cols(); ++i) {
            if (rng.nextBool(0.5))
                x50.push(i, rng.nextDouble(0.1, 1.0));
        }
    }

    /** Front-end-supplied x (simulate_cli builds its own stream). */
    Prepared(std::string n, CsrMatrix m, SparseVector x)
        : name(std::move(n)), csr(std::move(m)),
          bbc(BbcMatrix::fromCsr(csr)), x50(std::move(x))
    {
    }
};

/**
 * Run one of the four kernels on a prepared matrix through the
 * current ExecutionContext: a one-model runKernelLineup() that
 * records no "engine" entry. @p bCols is the dense-B width for SpMM
 * (the paper fixes 64); @p trace, when non-null, records the model's
 * spans.
 */
RunResult runKernel(Kernel kernel, const StcModel &model,
                    const Prepared &p,
                    const EnergyModel &energy = EnergyModel(),
                    int bCols = 64, TraceSink *trace = nullptr);

/**
 * Run one kernel on a prepared matrix across a whole architecture
 * lineup in a SINGLE pass over one shared task stream (the engine
 * fan-out, docs/ARCHITECTURE.md): the stream is enumerated once per
 * (kernel, matrix) no matter how many models run, and each returned
 * RunResult (lineup order) is bit-identical to a one-model
 * runKernel() call. Records per-model ResultLog entries plus one
 * "engine" entry with the pass's counters.
 * @p record_timing is ignored: the pipeline reads no clock, and the
 * parameter stays only so existing positional callers compile.
 * @p counters_out, when non-null, receives the pass's counters.
 * Model m is traced into @p traces[m] when that entry exists and is
 * non-null.
 */
std::vector<RunResult> runKernelLineup(
    Kernel kernel, const std::vector<const StcModel *> &models,
    const Prepared &p, const EnergyModel &energy = EnergyModel(),
    bool record_timing = false,
    PipelineCounters *counters_out = nullptr, int bCols = 64,
    const std::vector<TraceSink *> &traces = {});

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_KERNEL_RUN_HH
