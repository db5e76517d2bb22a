#include "unistc/tms.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "unistc/sdpu.hh"

namespace unistc
{

namespace
{

/** Build the task for (i, j, k) if it produces any work. */
bool
makeTask(const TileWords &a, const TileWords &b, int i, int j, int k,
         int n_cols, TileTask &out)
{
    const std::uint16_t a_tile = a.tiles[i * kTilesPerEdge + k];
    const std::uint16_t b_tile = b.tiles[k * kTilesPerEdge + j];
    if (!a_tile || !b_tile)
        return false;
    out = countTileTask(a_tile, b_tile, n_cols);
    if (out.products == 0)
        return false; // bitmap product is empty: DPG emits nothing
    out.i = static_cast<std::int8_t>(i);
    out.j = static_cast<std::int8_t>(j);
    out.k = static_cast<std::int8_t>(k);
    return true;
}

/**
 * Stable insertion sort into column-major (j, i) order; a layer holds
 * at most 16 tasks, so this beats std::stable_sort's buffer churn.
 */
void
sortLayerColMajor(TileTask *first, TileTask *last)
{
    for (TileTask *it = first + 1; it < last; ++it) {
        TileTask v = *it;
        TileTask *hole = it;
        while (hole > first &&
               (v.j < hole[-1].j ||
                (v.j == hole[-1].j && v.i < hole[-1].i))) {
            *hole = hole[-1];
            --hole;
        }
        *hole = v;
    }
}

} // namespace

const char *
toString(TaskOrdering ordering)
{
    switch (ordering) {
      case TaskOrdering::OuterProduct:
        return "outer-product";
      case TaskOrdering::DotProduct:
        return "dot-product";
      case TaskOrdering::RowRow:
        return "row-row";
    }
    return "?";
}

TileTaskList
generateTileTasks(const TileWords &a, const TileWords &b,
                  int n_tile_cols, TaskOrdering ordering, bool adaptive)
{
    UNISTC_ASSERT(n_tile_cols == 1 || n_tile_cols == kTilesPerEdge,
                  "tile columns must be 1 (MV) or 4 (MM)");
    const int n_cols = n_tile_cols == 1 ? 1 : 4;
    TileTaskList tasks;

    switch (ordering) {
      case TaskOrdering::OuterProduct: {
        // Four-layer intermediate-product bitmap: one layer per K.
        // Layer k pairs the live Lv1 tiles of A's tile column k with
        // those of B's tile row k, in row-major (i, j) order.
        const std::uint16_t a_tile_cols = transpose4x4(a.tileBits);
        const std::uint16_t j_mask =
            static_cast<std::uint16_t>((1u << n_tile_cols) - 1u);
        for (int k = 0; k < kTilesPerEdge; ++k) {
            const std::uint16_t b_live =
                static_cast<std::uint16_t>(row4(b.tileBits, k) &
                                           j_mask);
            // Collect the layer first so the adaptive intra-layer
            // order can inspect its shape.
            const std::size_t layer_begin = tasks.size();
            std::uint16_t live_rows = 0;
            std::uint16_t live_cols = 0;
            forEachSetBit(row4(a_tile_cols, k), [&](int i) {
                forEachSetBit(b_live, [&](int j) {
                    TileTask t;
                    if (makeTask(a, b, i, j, k, n_cols, t)) {
                        tasks.push_back(t);
                        live_rows = setBit(live_rows, i);
                        live_cols = setBit(live_cols, j);
                    }
                });
            });
            // Adaptive rule (§IV-A-1 ②): column-major when nonzero
            // rows outnumber nonzero columns, row-major otherwise.
            const bool col_major = adaptive &&
                popcount16(live_rows) > popcount16(live_cols);
            if (col_major) {
                sortLayerColMajor(tasks.data() + layer_begin,
                                  tasks.data() + tasks.size());
            }
        }
        break;
      }

      case TaskOrdering::DotProduct:
        for (int i = 0; i < kTilesPerEdge; ++i) {
            for (int j = 0; j < n_tile_cols; ++j) {
                for (int k = 0; k < kTilesPerEdge; ++k) {
                    TileTask t;
                    if (makeTask(a, b, i, j, k, n_cols, t))
                        tasks.push_back(t);
                }
            }
        }
        break;

      case TaskOrdering::RowRow:
        for (int i = 0; i < kTilesPerEdge; ++i) {
            for (int k = 0; k < kTilesPerEdge; ++k) {
                for (int j = 0; j < n_tile_cols; ++j) {
                    TileTask t;
                    if (makeTask(a, b, i, j, k, n_cols, t))
                        tasks.push_back(t);
                }
            }
        }
        break;
    }
    return tasks;
}

std::vector<TileTask>
generateTileTasks(const BlockPattern &a, const BlockPattern &b,
                  int n_tile_cols, TaskOrdering ordering, bool adaptive)
{
    const TileTaskList tasks =
        generateTileTasks(computePatternMeta(a), computePatternMeta(b),
                          n_tile_cols, ordering, adaptive);
    return std::vector<TileTask>(tasks.begin(), tasks.end());
}

OrderingStats
analyzeOrdering(const BlockPattern &a, const BlockPattern &b,
                int n_tile_cols, TaskOrdering ordering, int num_dpgs,
                int mac_count)
{
    OrderingStats stats;
    const TileTaskList tasks =
        generateTileTasks(computePatternMeta(a), computePatternMeta(b),
                          n_tile_cols, ordering, /*adaptive=*/true);
    if (tasks.empty())
        return stats;

    // Theoretical fetches: one tile fetch per task per operand.
    // Actual fetches: distinct tiles per cycle (same-cycle sharing is
    // the reuse the TMS ordering creates).
    const std::uint64_t theoretical = tasks.size();
    std::uint64_t actual_a = 0;
    std::uint64_t actual_b = 0;
    std::uint64_t parallel_sum = 0;
    std::uint64_t aligned_sum = 0;
    std::uint64_t conflict_cycles = 0;
    std::uint64_t num_cycles = 0;

    forEachSdpuCycle(
        std::span<const TileTask>(tasks.data(), tasks.size()),
        num_dpgs, mac_count, /*check_conflicts=*/true,
        [&](const SdpuCycleView &cycle) {
            // Tile identities fit a 16-bit mask (i*4+k, k*4+j in
            // 0..15), so distinct-tile counting is two popcounts.
            std::uint16_t a_tiles = 0;
            std::uint16_t b_tiles = 0;
            int k_count[kTilesPerEdge] = {0, 0, 0, 0};
            for (const TileTask *t : cycle.executed) {
                a_tiles = setBit(a_tiles, t->i * kTilesPerEdge + t->k);
                b_tiles = setBit(b_tiles, t->k * kTilesPerEdge + t->j);
                ++k_count[t->k];
            }
            actual_a += static_cast<std::uint64_t>(popcount16(a_tiles));
            actual_b += static_cast<std::uint64_t>(popcount16(b_tiles));
            parallel_sum += cycle.executed.size();
            int aligned = 0;
            for (int c : k_count)
                aligned = std::max(aligned, c);
            aligned_sum += static_cast<std::uint64_t>(aligned);
            if (cycle.hadConflict)
                ++conflict_cycles;
            ++num_cycles;
        });

    stats.cycles = num_cycles;
    stats.reuseRateA = 1.0 - static_cast<double>(actual_a) /
        static_cast<double>(theoretical);
    stats.reuseRateB = 1.0 - static_cast<double>(actual_b) /
        static_cast<double>(theoretical);
    stats.avgParallelTasks = static_cast<double>(parallel_sum) /
        static_cast<double>(num_cycles);
    stats.avgAlignedTasks = static_cast<double>(aligned_sum) /
        static_cast<double>(num_cycles);
    stats.writeConflictRate = static_cast<double>(conflict_cycles) /
        static_cast<double>(num_cycles);
    return stats;
}

} // namespace unistc
