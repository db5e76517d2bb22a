/**
 * @file
 * Shared grouped row-dataflow engine for a compile-time T3 geometry
 * M x N x K. RM-STC (8x4x2 @FP64, 16x4x2 @FP32) and Trapezoid's three
 * modes are all instances of this engine:
 *
 *  - rows of A are processed in lock-stepped groups of M;
 *  - each row consumes its nonzero scalars K at a time;
 *  - for each scalar group the touched B rows are merged (row-merge)
 *    and the merged column set is swept N columns per sub-step;
 *  - a group's cycle count is the maximum over its rows (load
 *    imbalance inside a group leaves lanes idle — the inefficiency
 *    the paper attributes to both RM-STC and Trapezoid).
 *
 * Each B row is reduced once per task to its column mask and a word
 * of per-column hit nibbles. A scalar group ORs the masks and adds
 * the words, and each sub-step reads its products from that sum.
 */

#ifndef UNISTC_STC_ROW_DATAFLOW_HH
#define UNISTC_STC_ROW_DATAFLOW_HH

#include <algorithm>
#include <bit>
#include <string>

#include "common/bitops.hh"
#include "obs/trace.hh"
#include "stc/stc_model.hh"

namespace unistc
{

/**
 * Spread the 16 bits of @p v into the 16 nibbles of a 64-bit word:
 * nibble c holds bit c.
 */
inline std::uint64_t
spreadNibbles(std::uint16_t v)
{
    std::uint64_t x = v;
    x = (x | (x << 24)) & 0x000000FF000000FFull;
    x = (x | (x << 12)) & 0x000F000F000F000Full;
    x = (x | (x << 6)) & 0x0303030303030303ull;
    return (x | (x << 3)) & 0x1111111111111111ull;
}

/**
 * Execute one T1 task under the M x N x K grouped row dataflow,
 * accumulating into @p res. @p c_net_units is the architecture's
 * static C-write network scale recorded per cycle.
 *
 * @tparam Gather when true (RM-STC) the merged B columns are gathered
 *         into dense N-wide segments; when false (Trapezoid) the
 *         engine sweeps fixed N-wide column chunks of the output
 *         extent and can only skip chunks that are entirely empty —
 *         B-side sparsity inside a chunk wastes lanes.
 * @param trace optional event sink: one span per row group on the
 *        SDPU track.
 */
template <int M, int N, int K, bool Gather>
void
runRowDataflow(const BlockTask &task, const MachineConfig &cfg,
               int c_net_units, RunResult &res, TraceSink *trace = nullptr)
{
    static_assert(M >= 1 && kBlockSize % M == 0,
                  "row groups must tile the block");
    // A chunk's hits (at most 4 x 15) are summed into a 4N-bit lane.
    static_assert(N == 1 || N == 2 || N == 4, "N must be 1, 2 or 4");
    static_assert(K >= 1 && K < 16, "column hit counts live in nibbles");
    // A row holds at most ceil(16 / K) scalar groups, and each sweeps
    // at most 16 / N sub-steps.
    constexpr int kMaxSteps = (kBlockSize + K - 1) / K * (kBlockSize / N);
    // Lowest column of each N-wide chunk, and one chunk's sum lane.
    constexpr std::uint32_t kChunkLows = 0xFFFFu / ((1u << N) - 1u);
    constexpr std::uint64_t kLaneMask = (1ull << (4 * N)) - 1u;

    ++res.tasksT1;
    const std::uint64_t t1_start = res.cycles;
    const std::uint64_t products_start = res.products;
    const int mac = cfg.macCount;
    const std::uint16_t n_mask = task.isMv ? 0x0001u : 0xFFFFu;
    // An MV task's only chunk is clipped to column 0.
    const int chunk_width = task.isMv ? 1 : N;

    // Each B row a scalar of A touches: its columns inside the N
    // extent and their hit nibbles.
    std::uint16_t b_cols[kBlockSize] = {};
    std::uint64_t b_hits[kBlockSize] = {};
    forEachSetBit(task.a.nonzeroCols(), [&](int k) {
        b_cols[k] = static_cast<std::uint16_t>(task.b.rowBits(k) & n_mask);
        b_hits[k] = spreadNibbles(b_cols[k]);
    });

    // Effective products per cycle of the current row group: each
    // row's s-th sub-step adds into eff[s].
    int eff[kMaxSteps] = {};
    std::uint64_t scalars = 0;   // A scalars fetched
    std::uint64_t t3_tasks = 0;  // scalar groups
    std::uint64_t lane_cols = 0; // B lanes x visited columns
    std::uint64_t c_writes = 0;  // visited columns

    for (int g = 0; g < kBlockSize; g += M) {
        int group_cycles = 0;

        for (int r = g; r < g + M; ++r) {
            int step = 0;
            std::uint16_t row = task.a.rowBits(r);
            while (row) {
                // The row's next K scalars, LSB first: the B rows they
                // touch, merged, and the hit count of every column.
                std::uint16_t merged = 0;
                std::uint64_t hits = 0;
                int size = 0;
                for (; size < K && row; ++size) {
                    const int k = std::countr_zero(row);
                    merged = static_cast<std::uint16_t>(merged | b_cols[k]);
                    hits += b_hits[k];
                    row = static_cast<std::uint16_t>(row & (row - 1u));
                }
                ++t3_tasks;
                scalars += size;

                const int first_step = step;
                int width = 0;
                if constexpr (Gather) {
                    // Each sub-step takes the next N merged columns.
                    for (std::uint16_t rest = merged; rest;) {
                        int products = 0;
                        for (int x = 0; x < N && rest; ++x) {
                            products += static_cast<int>(
                                (hits >> (4 * std::countr_zero(rest))) &
                                0xFu);
                            rest = static_cast<std::uint16_t>(
                                rest & (rest - 1u));
                            ++width;
                        }
                        eff[step++] += products;
                    }
                } else {
                    // Each sub-step takes the next nonempty chunk: fold
                    // every chunk onto its lowest column, and sum its
                    // hits into the lane that starts at that column.
                    std::uint32_t lows = merged;
                    for (int s = 1; s < N; s <<= 1)
                        lows |= lows >> s;
                    lows &= kChunkLows;
                    std::uint64_t sums = hits;
                    if constexpr (N >= 2)
                        sums = (sums & 0x0F0F0F0F0F0F0F0Full) +
                               ((sums >> 4) & 0x0F0F0F0F0F0F0F0Full);
                    if constexpr (N >= 4)
                        sums = (sums & 0x00FF00FF00FF00FFull) +
                               ((sums >> 8) & 0x00FF00FF00FF00FFull);
                    for (; lows; lows &= lows - 1u) {
                        eff[step++] += static_cast<int>(
                            (sums >> (4 * std::countr_zero(lows))) &
                            kLaneMask);
                        width += chunk_width;
                    }
                }
                // A group that matched nothing (e.g. sparse x) still
                // issues one sub-step and burns the lanes.
                if (step == first_step)
                    ++step;
                // Lanes for scalars whose B row lacks a visited column
                // toggle without useful work (row-merge's cost on
                // disjoint rows); the K-wide adder merges each column
                // into one C write.
                lane_cols += static_cast<std::uint64_t>(size) * width;
                c_writes += width;
            }
            group_cycles = std::max(group_cycles, step);
        }

        const std::uint64_t group_start = res.cycles;
        for (int cyc = 0; cyc < group_cycles; ++cyc) {
            res.recordCycle(mac, eff[cyc], 0, c_net_units);
            eff[cyc] = 0;
        }
        if (group_cycles > 0) {
            UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu,
                                  "row group " + std::to_string(g / M),
                                  group_start, res.cycles - group_start);
        }
    }

    // A scalars are fetched once per group, and every product reads
    // one B operand.
    const std::uint64_t products = res.products - products_start;
    res.tasksT3 += t3_tasks;
    res.traffic.readsA += scalars;
    res.traffic.wastedA += K * t3_tasks - scalars;
    res.traffic.readsB += products;
    res.traffic.wastedB += lane_cols - products;
    res.traffic.writesC += c_writes;

    UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu, "T1 (row dataflow)",
                          t1_start, res.cycles - t1_start);
}

} // namespace unistc

#endif // UNISTC_STC_ROW_DATAFLOW_HH
