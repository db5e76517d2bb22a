/**
 * @file
 * Tile Multiply Scheduler (§IV-A-1). The TMS applies an outer-product
 * pass over the two top-level (Lv1) tile bitmaps to enumerate the
 * four K layers of T3 tasks, orders them for data reuse (the paper's
 * Fig. 10 study compares dot-product, outer-product and row-row
 * orders; outer-product with adaptive row/column-major intra-layer
 * order wins), and dispatches them into the Tile queue with
 * round-robin write-conflict arbitration.
 */

#ifndef UNISTC_UNISTC_TMS_HH
#define UNISTC_UNISTC_TMS_HH

#include <vector>

#include "bbc/block_pattern.hh"
#include "bbc/pattern_meta.hh"
#include "common/small_vector.hh"
#include "unistc/tile_task.hh"

namespace unistc
{

/** Allocation-free T3 task list (64 tasks fit inline). */
using TileTaskList = SmallVector<TileTask, kMaxTileTasks>;

/** Batched T3 task ordering strategies (Fig. 10). */
enum class TaskOrdering
{
    OuterProduct, ///< K layer by layer (default, best reuse).
    DotProduct,   ///< Per C tile, all K together.
    RowRow,       ///< Per C tile row, K inner.
};

/** Printable name of an ordering. */
const char *toString(TaskOrdering ordering);

/**
 * Enumerate the T3 tasks of one T1 task in the requested order.
 *
 * @param a A block pattern.
 * @param b B block (or embedded vector) pattern.
 * @param n_tile_cols output tile columns (4 for MM, 1 for MV).
 * @param ordering batch ordering strategy.
 * @param adaptive enable the adaptive intra-layer row/column-major
 *        selection (only meaningful for OuterProduct ordering).
 */
std::vector<TileTask> generateTileTasks(const BlockPattern &a,
                                        const BlockPattern &b,
                                        int n_tile_cols,
                                        TaskOrdering ordering,
                                        bool adaptive = true);

/**
 * Allocation-free variant over the two blocks' tile words — the
 * simulation hot path, and the TMS's one input: a PatternMeta passes
 * as its TileWords, and a stored BBC block passes its own Lv1/Lv2
 * words (BbcMatrix::tileWords). Emits exactly the same tasks in the
 * same order as the BlockPattern overload.
 */
TileTaskList generateTileTasks(const TileWords &a, const TileWords &b,
                               int n_tile_cols, TaskOrdering ordering,
                               bool adaptive = true);

/** Scheduling-policy metrics reported by the Fig. 10 study. */
struct OrderingStats
{
    double reuseRateA = 0.0;   ///< 1 - actual/theoretical A fetches.
    double reuseRateB = 0.0;   ///< 1 - actual/theoretical B fetches.
    double avgParallelTasks = 0.0; ///< Mean T3 tasks per cycle.
    double avgAlignedTasks = 0.0;  ///< Mean same-K tasks per cycle.
    double writeConflictRate = 0.0;///< Conflict cycles / total cycles.
    std::uint64_t cycles = 0;
};

/**
 * Dry-run the SDPU packing loop for an ordering policy and collect
 * the reuse/parallelism/conflict metrics of Fig. 10.
 *
 * @param num_dpgs DPG count (parallel task limit per cycle).
 * @param mac_count SDPU multiplier budget per cycle.
 */
OrderingStats analyzeOrdering(const BlockPattern &a,
                              const BlockPattern &b, int n_tile_cols,
                              TaskOrdering ordering, int num_dpgs,
                              int mac_count);

} // namespace unistc

#endif // UNISTC_UNISTC_TMS_HH
