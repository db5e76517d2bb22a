#include "stc/sigma.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "obs/trace.hh"

namespace unistc
{

namespace
{

/**
 * Spread the 8 bits of @p v into the 8 bytes of a word: byte c holds
 * bit c.
 */
std::uint64_t
spreadBytes(std::uint8_t v)
{
    std::uint64_t x = v;
    x = (x | (x << 28)) & 0x0000000F0000000Full;
    x = (x | (x << 14)) & 0x0003000300030003ull;
    return (x | (x << 7)) & 0x0101010101010101ull;
}

} // namespace

NetworkConfig
Sigma::network() const
{
    // Benes networks give SIGMA flexible but expensive routing.
    NetworkConfig net;
    net.aFactor = 2.6;
    net.bFactor = 2.4;
    net.cFactor = 2.0;
    net.cNetUnits = 32;
    net.dynamicGating = false;
    return net;
}

void
Sigma::runBlock(const BlockTask &task, RunResult &res,
                TraceSink *trace) const
{
    // SIGMA's flexible distribution network packs the nonzeros of A
    // (in row-major order, spanning row boundaries) into the K-lane
    // array; the forwarding-adder reduction tree produces segmented
    // per-row sums. B is streamed densely N columns per cycle —
    // SIGMA's single-side-sparse mode cannot exploit B's sparsity,
    // which is what limits it against dual-side designs (§VI-C-1).
    ++res.tasksT1;
    const std::uint64_t t0 = res.cycles;
    const int mac = cfg_.macCount;
    const int c_net_units = network().cNetUnits;
    const int n_ext = task.nExtent();
    const int t3n = cfg_.precision == Precision::FP64 ? 4 : 8;
    const int t3k = 16;
    const int n_steps = static_cast<int>(ceilDiv(n_ext, t3n));
    const std::uint16_t n_mask = task.isMv ? 0x0001u : 0xFFFFu;

    const std::uint16_t a_cols = task.a.nonzeroCols();
    if (a_cols == 0)
        return;

    // Each B row A touches, one byte lane per column: word 0 holds
    // columns 0-7, word 1 columns 8-15.
    std::uint64_t b_lanes[kBlockSize][2] = {};
    forEachSetBit(a_cols, [&](int k) {
        const std::uint16_t cols =
            static_cast<std::uint16_t>(task.b.rowBits(k) & n_mask);
        b_lanes[k][0] = spreadBytes(static_cast<std::uint8_t>(cols));
        b_lanes[k][1] = spreadBytes(static_cast<std::uint8_t>(cols >> 8));
    });

    // Stream B across one packed group of @p group A nonzeros from
    // @p segments rows. hits holds every column's hit count: the same
    // K index can occupy several lanes (different rows of A), so the
    // count is multiplicity-weighted; at most 16, so a cycle's bytes
    // sum without carrying.
    const auto sweep = [&](int group, int segments,
                           const std::uint64_t hits[2]) {
        // The packed A group is loaded into the lanes once per sweep.
        res.traffic.readsA += group;
        res.traffic.wastedA += t3k - group;
        for (int ni = 0; ni < n_steps; ++ni) {
            const int first = ni * t3n;
            const int chunk = std::min(t3n, n_ext - first);
            std::uint64_t lanes = hits[first / 8] >> (8 * (first % 8));
            if (t3n < 8)
                lanes &= 0xFFFFFFFFull;
            const int eff =
                static_cast<int>((lanes * 0x0101010101010101ull) >> 56);
            res.traffic.readsB += eff;
            // Dense streaming: a B operand slot toggles for every
            // stationary lane whether or not B holds a nonzero.
            res.traffic.wastedB +=
                static_cast<std::uint64_t>(group) * chunk - eff;
            // The reduction tree emits one partial sum per row segment
            // present in the group (conservatively: one write per
            // touched row per column).
            res.traffic.writesC +=
                static_cast<std::uint64_t>(segments) * chunk;
            ++res.tasksT3;
            res.recordCycle(mac, eff, 0, c_net_units);
        }
    };

    std::uint64_t hits[2] = {};
    int group = 0;
    int segments = 0;
    for (int r = 0; r < kBlockSize; ++r) {
        std::uint16_t row = task.a.rowBits(r);
        if (row == 0)
            continue;
        ++segments;
        while (row) {
            const int k = std::countr_zero(row);
            row = static_cast<std::uint16_t>(row & (row - 1u));
            hits[0] += b_lanes[k][0];
            hits[1] += b_lanes[k][1];
            if (++group == t3k) {
                sweep(group, segments, hits);
                hits[0] = hits[1] = 0;
                group = 0;
                segments = row != 0 ? 1 : 0;
            }
        }
    }
    if (group > 0)
        sweep(group, segments, hits);

    UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu,
                          task.isMv ? "T1 MV (sigma)" : "T1 MM (sigma)",
                          t0, res.cycles - t0);
}

} // namespace unistc
