#include "stc/trapezoid.hh"

#include "common/logging.hh"
#include "obs/trace.hh"
#include "stc/row_dataflow.hh"

namespace unistc
{

NetworkConfig
Trapezoid::network() const
{
    NetworkConfig net;
    net.aFactor = 3.0;
    net.bFactor = 2.7;
    net.cFactor = 2.1;
    net.cNetUnits = 32;
    net.dynamicGating = false;
    return net;
}

void
Trapezoid::runBlock(const BlockTask &task, RunResult &res,
                    TraceSink *trace) const
{
    struct Mode
    {
        int m, n, k;
    };
    const bool fp64 = cfg_.precision == Precision::FP64;
    const Mode modes[3] = {
        {16, fp64 ? 2 : 4, 2}, // TrIP
        {16, 4, fp64 ? 1 : 2}, // TrGT
        {8, 4, fp64 ? 2 : 4},  // TrGS
    };

    // Count every mode's cycles and simulate only the fastest (the
    // first on a tie). Trapezoid sweeps fixed column chunks (no
    // B-column gather): strong on dot-product-shaped work (SpMV),
    // weak when B is sparse (SpGEMM) — the Fig. 21 asymmetry.
    const Mode *best = nullptr;
    std::uint64_t best_cycles = 0;
    for (const Mode &mode : modes) {
        // No cycle multiplies more than M x N x K pairs, so this
        // bounds the modes that are counted but not simulated too.
        UNISTC_ASSERT(mode.m * mode.n * mode.k <= cfg_.macCount,
                      "Trapezoid mode ", mode.m, "x", mode.n, "x",
                      mode.k, " exceeds ", cfg_.macCount, " MACs");
        const std::uint64_t cycles = rowDataflowCycles(
            task, mode.m, mode.n, mode.k, /*gather_columns=*/false);
        if (best == nullptr || cycles < best_cycles) {
            best = &mode;
            best_cycles = cycles;
        }
    }
    const std::uint64_t t0 = res.cycles;
    runRowDataflow(task, cfg_, best->m, best->n, best->k,
                   network().cNetUnits, res, /*gather_columns=*/false);

    UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu,
                          task.isMv ? "T1 MV (trapezoid)"
                                    : "T1 MM (trapezoid)",
                          t0, res.cycles - t0);
}

} // namespace unistc
