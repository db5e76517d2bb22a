#include "stc/trapezoid.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "stc/row_dataflow.hh"

namespace unistc
{

namespace
{

/** One Trapezoid T3 geometry, M x N x K. */
struct Mode
{
    int m, n, k;
};

// TrIP, TrGT and TrGS (Table VI). At FP32, TrIP and TrGT share the
// 16x4x2 geometry, so TrGT never wins.
constexpr Mode kFp64Modes[3] = {{16, 2, 2}, {16, 4, 1}, {8, 4, 2}};
constexpr Mode kFp32Modes[3] = {{16, 4, 2}, {16, 4, 2}, {8, 4, 4}};

/**
 * Nonempty column chunks of a B row with columns @p cols: bit c of
 * the low byte marks 2-wide chunk c, bit 8 + c 4-wide chunk c.
 */
std::uint16_t
chunkMasks(std::uint16_t cols)
{
    std::uint32_t two = (cols | (cols >> 1)) & 0x5555u;
    std::uint32_t four = (two | (two >> 2)) & 0x1111u;
    two = (two | (two >> 1)) & 0x3333u;
    two = (two | (two >> 2)) & 0x0F0Fu;
    two = (two | (two >> 4)) & 0x00FFu;
    four = (four | (four >> 3)) & 0x0303u;
    four = (four | (four >> 6)) & 0x000Fu;
    return static_cast<std::uint16_t>(two | (four << 8));
}

/**
 * Sub-steps of a scalar group by the mask of its nonempty chunks: one
 * per chunk, and one when none is.
 */
constexpr std::array<std::uint8_t, 256> kSubSteps = [] {
    std::array<std::uint8_t, 256> steps{};
    for (unsigned chunks = 0; chunks < steps.size(); ++chunks)
        steps[chunks] = static_cast<std::uint8_t>(
            std::max(1, std::popcount(chunks)));
    return steps;
}();

/**
 * Sub-steps of a scalar group whose B rows' chunkMasks() OR to
 * @p chunks, under N-wide chunks.
 */
int
subSteps(std::uint16_t chunks, int n)
{
    return kSubSteps[n == 2 ? chunks & 0x00FFu : chunks >> 8];
}

/**
 * Cycles runRowDataflow<M, N, K, false>() would take for @p task under
 * each of @p Modes, counted in one walk over A's rows: each scalar
 * joins every mode's open scalar group, a group closes after K
 * scalars or at the row's end and adds its sub-steps to the row, and
 * every M rows the slowest row closes a row group.
 */
template <const Mode (&Modes)[3]>
std::array<std::uint64_t, 3>
countModes(const BlockTask &task)
{
    constexpr auto two_or_four = [](const Mode &mode) {
        return mode.n == 2 || mode.n == 4;
    };
    static_assert(std::ranges::all_of(Modes, two_or_four),
                  "chunkMasks() covers 2- and 4-wide chunks only");
    const std::uint16_t n_mask = task.isMv ? 0x0001u : 0xFFFFu;
    std::uint16_t chunks[kBlockSize] = {};
    forEachSetBit(task.a.nonzeroCols(), [&](int k) {
        chunks[k] = chunkMasks(
            static_cast<std::uint16_t>(task.b.rowBits(k) & n_mask));
    });

    std::array<std::uint64_t, 3> cycles{};
    int slowest[3] = {};
    for (int r = 0; r < kBlockSize; ++r) {
        int steps[3] = {};
        std::uint16_t open[3] = {};
        int taken = 0;
        for (std::uint16_t row = task.a.rowBits(r); row;) {
            const std::uint16_t c = chunks[std::countr_zero(row)];
            row = static_cast<std::uint16_t>(row & (row - 1u));
            ++taken;
            for (int i = 0; i < 3; ++i) {
                open[i] = static_cast<std::uint16_t>(open[i] | c);
                if (taken % Modes[i].k == 0 || row == 0) {
                    steps[i] += subSteps(open[i], Modes[i].n);
                    open[i] = 0;
                }
            }
        }
        for (int i = 0; i < 3; ++i) {
            slowest[i] = std::max(slowest[i], steps[i]);
            if ((r + 1) % Modes[i].m == 0) {
                cycles[i] += static_cast<std::uint64_t>(slowest[i]);
                slowest[i] = 0;
            }
        }
    }
    return cycles;
}

/** Simulate @p task under the fastest of @p Modes (the first on a tie). */
template <const Mode (&Modes)[3]>
void
runFastest(const BlockTask &task, const MachineConfig &cfg,
           int c_net_units, RunResult &res)
{
    for (const Mode &mode : Modes) {
        // No cycle multiplies more than M x N x K pairs, so this
        // bounds the modes that are counted but not simulated too.
        UNISTC_ASSERT(mode.m * mode.n * mode.k <= cfg.macCount,
                      "Trapezoid mode ", mode.m, "x", mode.n, "x", mode.k,
                      " exceeds ", cfg.macCount, " MACs");
    }
    const std::array<std::uint64_t, 3> cycles = countModes<Modes>(task);
    int best = 0;
    for (int i = 1; i < 3; ++i) {
        if (cycles[i] < cycles[best])
            best = i;
    }
    switch (best) {
    case 0:
        runRowDataflow<Modes[0].m, Modes[0].n, Modes[0].k, false>(
            task, cfg, c_net_units, res);
        break;
    case 1:
        runRowDataflow<Modes[1].m, Modes[1].n, Modes[1].k, false>(
            task, cfg, c_net_units, res);
        break;
    default:
        runRowDataflow<Modes[2].m, Modes[2].n, Modes[2].k, false>(
            task, cfg, c_net_units, res);
        break;
    }
}

} // namespace

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

std::array<std::uint64_t, 3>
Trapezoid::modeCycles(const BlockTask &task) const
{
    return cfg_.precision == Precision::FP64 ? countModes<kFp64Modes>(task)
                                             : countModes<kFp32Modes>(task);
}

void
Trapezoid::runBlock(const BlockTask &task, RunResult &res,
                    TraceSink *trace) const
{
    // Count every mode's cycles and simulate only the fastest.
    // Trapezoid sweeps fixed column chunks (no B-column gather): strong
    // on dot-product-shaped work (SpMV), weak when B is sparse
    // (SpGEMM) — the Fig. 21 asymmetry.
    const std::uint64_t t0 = res.cycles;
    if (cfg_.precision == Precision::FP64)
        runFastest<kFp64Modes>(task, cfg_, network().cNetUnits, res);
    else
        runFastest<kFp32Modes>(task, cfg_, network().cNetUnits, res);

    UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu,
                          task.isMv ? "T1 MV (trapezoid)"
                                    : "T1 MM (trapezoid)",
                          t0, res.cycles - t0);
}

} // namespace unistc
