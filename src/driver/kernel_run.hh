/**
 * @file
 * The kernel-run surface of the execution driver: a matrix prepared
 * once (Prepared), and runKernel() / runKernelLineup() — the two
 * calls every front-end body makes per simulation. Behind them sits
 * the ExecutionContext's mode machinery (sweep plan/replay and
 * checkpoint resume; driver/execution_context.hh), so a body written
 * against these two functions transparently gains --jobs and
 * --resume with byte-identical output.
 *
 * Moved out of bench/bench_common.hh; bench harnesses still reach
 * them through the unistc::bench aliases in that header.
 */

#ifndef UNISTC_DRIVER_KERNEL_RUN_HH
#define UNISTC_DRIVER_KERNEL_RUN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "cache/matrix_cache.hh"
#include "common/rng.hh"
#include "engine/kernel_pipeline.hh"
#include "runner/report.hh"
#include "sim/result.hh"
#include "sparse/sparse_vector.hh"

namespace unistc
{
namespace driver
{

/**
 * BBC for @p csr: the artifact cache's already-decoded conversion
 * when one exists for these exact contents, a fresh fromCsr()
 * otherwise. With the cache disabled this is exactly fromCsr(), so
 * front-ends built on Prepared need zero changes either way.
 */
inline BbcMatrix
bbcFor(const CsrMatrix &csr)
{
    if (auto cached = MatrixCache::global().findBbcFor(csr))
        return *cached;
    return BbcMatrix::fromCsr(csr);
}

/** A matrix prepared once and reused across models and kernels. */
struct Prepared
{
    std::string name;
    CsrMatrix csr;
    BbcMatrix bbc;
    SparseVector x50; ///< 50%-sparse x for SpMSpV (§VI-A).

    Prepared(std::string n, CsrMatrix m, std::uint64_t seed = 99)
        : name(std::move(n)), csr(std::move(m)), bbc(bbcFor(csr)),
          x50(csr.cols())
    {
        Rng rng(seed);
        for (int i = 0; i < csr.cols(); ++i) {
            if (rng.nextBool(0.5))
                x50.push(i, rng.nextDouble(0.1, 1.0));
        }
    }

    /** Front-end-supplied x (simulate_cli builds its own stream). */
    Prepared(std::string n, CsrMatrix m, SparseVector x)
        : name(std::move(n)), csr(std::move(m)), bbc(bbcFor(csr)),
          x50(std::move(x))
    {
    }
};

/**
 * Provenance of one runKernel() result — where the numbers actually
 * came from. Purely informational (the result itself already matches
 * the serial run byte for byte); simulate_cli uses it to annotate
 * its table rows.
 */
struct RunInfo
{
    /** Served from the --resume checkpoint, not simulated. */
    bool resumed = false;

    /** Quarantined (recovery policy): the result is zeroed. */
    bool quarantined = false;

    /** Exceeded the cooperative --max-job-seconds watchdog. */
    bool timedOut = false;

    /** Simulation attempts made (retries included). */
    int attempts = 1;

    /** Final error of a quarantined job, empty otherwise. */
    std::string error;
};

/** Inline (in-process, serial) execution of one kernel. */
RunResult executeKernel(Kernel kernel, const StcModel &model,
                        const Prepared &p, const EnergyModel &energy,
                        int bCols = 64);

/**
 * Run one of the four kernels on a prepared matrix through the
 * current ExecutionContext (sweep and checkpoint aware).
 * @p bCols is the dense-B width for SpMM (the paper fixes 64).
 */
RunResult runKernel(Kernel kernel, const StcModel &model,
                    const Prepared &p,
                    const EnergyModel &energy = EnergyModel(),
                    int bCols = 64, RunInfo *info = nullptr);

/**
 * Run one kernel on a prepared matrix across a whole architecture
 * lineup in a SINGLE pass over one shared task stream (the engine
 * fan-out, docs/ARCHITECTURE.md): the stream is enumerated once per
 * (kernel, matrix) no matter how many models run, and each returned
 * RunResult (lineup order) is bit-identical to a one-model
 * runKernel() call. Honors --resume — per-(kernel, model, matrix)
 * checkpoint entries, compatible with files written by runKernel() —
 * and --jobs, where the whole lineup rides as one multi-model job.
 * Records per-model ResultLog entries plus one "engine" entry with
 * the pass's counters. @p record_timing is ignored: the pipeline
 * reads no clock, and the parameter stays only so existing
 * positional callers compile. @p counters_out, when
 * non-null, receives the pass's counters (all zero in a --jobs plan
 * pass or when every model was served from the checkpoint).
 * @p infos, when non-null, is resized to the lineup and receives
 * per-model provenance.
 */
std::vector<RunResult> runKernelLineup(
    Kernel kernel, const std::vector<const StcModel *> &models,
    const Prepared &p, const EnergyModel &energy = EnergyModel(),
    bool record_timing = false,
    PipelineCounters *counters_out = nullptr, int bCols = 64,
    std::vector<RunInfo> *infos = nullptr);

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_KERNEL_RUN_HH
