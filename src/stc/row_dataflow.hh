/**
 * @file
 * Shared grouped row-dataflow engine parameterised on the T3 geometry
 * M x N x K. RM-STC (8x4x2 @FP64) and Trapezoid's three modes are all
 * instances of this engine:
 *
 *  - rows of A are processed in lock-stepped groups of M;
 *  - each row consumes its nonzero scalars K at a time;
 *  - for each scalar group the touched B rows are merged (row-merge)
 *    and the merged column set is swept N columns per sub-step;
 *  - a group's cycle count is the maximum over its rows (load
 *    imbalance inside a group leaves lanes idle — the inefficiency
 *    the paper attributes to both RM-STC and Trapezoid).
 *
 * runRowDataflow() simulates a task in full; rowDataflowCycles() only
 * counts its cycles. Both walk the scalar groups and the visited
 * columns through the same helpers, forEachScalarGroup() and
 * ColumnSweep.
 */

#ifndef UNISTC_STC_ROW_DATAFLOW_HH
#define UNISTC_STC_ROW_DATAFLOW_HH

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "stc/stc_model.hh"

namespace unistc
{

/**
 * Call @p fn(lanes, size) for each K-scalar group of an A row: the
 * row's nonzero columns, LSB first, @p t3k at a time. @p lanes holds
 * the group's K indices, i.e. the B rows it touches.
 */
template <typename Fn>
inline void
forEachScalarGroup(std::uint16_t a_row, int t3k, Fn &&fn)
{
    while (a_row) {
        std::uint16_t lanes = 0;
        int size = 0;
        for (; size < t3k && a_row; ++size) {
            const std::uint16_t low =
                static_cast<std::uint16_t>(a_row & -a_row);
            lanes = static_cast<std::uint16_t>(lanes | low);
            a_row = static_cast<std::uint16_t>(a_row ^ low);
        }
        fn(lanes, size);
    }
}

/**
 * How one geometry sweeps a task's output columns. With gathering the
 * sub-steps of a scalar group visit exactly the merged columns of its
 * B rows; without, every column of each N-wide chunk that holds one
 * of them.
 */
class ColumnSweep
{
  public:
    ColumnSweep(const BlockTask &task, int t3n, bool gather_columns)
        : nMask_(task.isMv ? 0x0001u : 0xFFFFu), t3n_(t3n),
          gather_(gather_columns)
    {
        // Fixed chunks must tile the block.
        UNISTC_ASSERT(t3n >= 1 && kBlockSize % t3n == 0,
                      "row dataflow N = ", t3n, " does not divide ",
                      kBlockSize);
        chunk_ = (1u << t3n) - 1u;
        chunkLows_ = 0xFFFFu / chunk_;
    }

    /** Columns the sub-steps of scalar group @p lanes visit. */
    std::uint16_t
    visited(const BlockPattern &b, std::uint16_t lanes) const
    {
        std::uint32_t merged = 0;
        forEachSetBit(lanes, [&](int k) { merged |= b.rowBits(k); });
        merged &= nMask_;
        if (gather_)
            return static_cast<std::uint16_t>(merged);
        // Fold each chunk onto its lowest column, keep those, and
        // widen every nonempty chunk back to N columns; the chunks
        // tile the block, so the multiply never carries.
        for (int s = 1; s < t3n_; s <<= 1)
            merged |= merged >> s;
        return static_cast<std::uint16_t>(
            ((merged & chunkLows_) * chunk_) & nMask_);
    }

    /**
     * Sub-steps that sweep @p visited columns N at a time. A group
     * that matched nothing (e.g. sparse x) still issues one sub-step
     * and burns the lanes.
     */
    int
    subSteps(std::uint16_t visited) const
    {
        return std::max(1, (popcount16(visited) + t3n_ - 1) / t3n_);
    }

  private:
    std::uint32_t nMask_;         ///< N extent: 16 columns (MM) or 1 (MV).
    int t3n_;
    bool gather_;
    std::uint32_t chunk_ = 0;     ///< N low bits.
    std::uint32_t chunkLows_ = 0; ///< Lowest column of each chunk.
};

/**
 * Cycles runRowDataflow() would add for @p task under the M x N x K
 * geometry, without any accounting: each row costs the sub-steps of
 * all its scalar groups, and each row group the maximum over its
 * rows.
 */
inline std::uint64_t
rowDataflowCycles(const BlockTask &task, int t3m, int t3n, int t3k,
                  bool gather_columns)
{
    const ColumnSweep sweep(task, t3n, gather_columns);
    std::uint64_t cycles = 0;
    for (int g = 0; g < kBlockSize; g += t3m) {
        const int n_rows = std::min(t3m, kBlockSize - g);
        int group_cycles = 0;
        for (int ri = 0; ri < n_rows; ++ri) {
            int row_cycles = 0;
            forEachScalarGroup(task.a.rowBits(g + ri), t3k,
                               [&](std::uint16_t lanes, int) {
                row_cycles += sweep.subSteps(sweep.visited(task.b, lanes));
            });
            group_cycles = std::max(group_cycles, row_cycles);
        }
        cycles += group_cycles;
    }
    return cycles;
}

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
 * @param gather_columns when true (RM-STC) the merged B columns are
 *        gathered into dense N-wide segments; when false (Trapezoid)
 *        the engine sweeps fixed N-wide column chunks of the output
 *        extent and can only skip chunks that are entirely empty —
 *        B-side sparsity inside a chunk wastes lanes.
 * @param trace optional event sink: one span per row group on the
 *        SDPU track.
 */
inline void
runRowDataflow(const BlockTask &task, const MachineConfig &cfg,
               int t3m, int t3n, int t3k, int c_net_units,
               RunResult &res, bool gather_columns = true,
               TraceSink *trace = nullptr)
{
    // Column hit counts live in 4-bit lanes and never exceed K.
    UNISTC_ASSERT(t3k < 16, "row dataflow K = ", t3k, " overflows a lane");
    const ColumnSweep sweep(task, t3n, gather_columns);
    ++res.tasksT1;
    const std::uint64_t t1_start = res.cycles;
    const int mac = cfg.macCount;

    // Effective products per cycle of the current row group: each
    // row's s-th sub-step adds into eff[s]. A row takes at most 16
    // scalar groups x 16 columns sub-steps (the 1x1x1 geometry).
    int eff[kBlockSize * kBlockSize] = {};

    for (int g = 0; g < kBlockSize; g += t3m) {
        const int n_rows = std::min(t3m, kBlockSize - g);
        int group_cycles = 0;

        for (int ri = 0; ri < n_rows; ++ri) {
            int step = 0;
            forEachScalarGroup(task.a.rowBits(g + ri), t3k,
                               [&](std::uint16_t lanes, int size) {
                // A scalars for this group are fetched once.
                res.traffic.readsA += size;
                res.traffic.wastedA += t3k - size;
                ++res.tasksT3;

                // Hit count of every column: the group's B rows added
                // as nibble lanes.
                std::uint64_t hits = 0;
                forEachSetBit(lanes, [&](int k) {
                    hits += spreadNibbles(task.b.rowBits(k));
                });
                std::uint16_t visited = sweep.visited(task.b, lanes);
                const int width = popcount16(visited);
                int group_products = 0;
                for (int s = sweep.subSteps(visited); s > 0; --s) {
                    int products = 0;
                    for (int x = 0; x < t3n && visited; ++x) {
                        products += static_cast<int>(
                            (hits >> (4 * std::countr_zero(visited))) &
                            0xFu);
                        visited = static_cast<std::uint16_t>(
                            visited & (visited - 1u));
                    }
                    eff[step++] += products;
                    group_products += products;
                }
                res.traffic.readsB += group_products;
                // Lanes for scalars whose B row lacks a visited column
                // toggle without useful work (row-merge's cost on
                // disjoint rows).
                res.traffic.wastedB += size * width - group_products;
                res.traffic.writesC += width; // merged by the K-wide adder
            });
            group_cycles = std::max(group_cycles, step);
        }

        const std::uint64_t group_start = res.cycles;
        for (int cyc = 0; cyc < group_cycles; ++cyc) {
            res.recordCycle(mac, eff[cyc], 0, c_net_units);
            eff[cyc] = 0;
        }
        if (group_cycles > 0) {
            UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu,
                                  "row group " + std::to_string(g / t3m),
                                  group_start, res.cycles - group_start);
        }
    }

    UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu, "T1 (row dataflow)",
                          t1_start, res.cycles - t1_start);
}

} // namespace unistc

#endif // UNISTC_STC_ROW_DATAFLOW_HH
