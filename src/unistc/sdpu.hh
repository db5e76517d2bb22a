/**
 * @file
 * Segmented Dot-Product Unit (§IV-B) and the per-cycle task packing
 * it induces. The SDPU's merge-forward structure turns any group of
 * up to four adjacent multipliers into a reduction tree, so the T4
 * segments of several T3 tasks are concatenated compactly onto the
 * MAC lanes. Packing per cycle is bounded by three constraints:
 *   1. at most one T3 task per DPG (numDpgs tasks);
 *   2. total intermediate products <= the MAC budget (in-order
 *      concatenation stops at the first task that does not fit);
 *   3. no two tasks may write the same C tile in one cycle — a
 *      conflicting task occupies its DPG but waits (round-robin
 *      arbitration, §IV-A-1 ③).
 *
 * Two entry points: forEachSdpuCycle() visits each packed cycle
 * without allocating (the simulation hot path), and scheduleSdpu()
 * materialises the cycle list for analyses that need to revisit it.
 */

#ifndef UNISTC_UNISTC_SDPU_HH
#define UNISTC_UNISTC_SDPU_HH

#include <span>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/small_vector.hh"
#include "unistc/tile_task.hh"

namespace unistc
{

/** One SDPU execution cycle (materialised form). */
struct SdpuCycle
{
    std::vector<TileTask> executed; ///< Tasks computed this cycle.
    int waitingDpgs = 0;  ///< DPGs held by write-conflicted tasks.
    bool hadConflict = false;

    /** Effective products this cycle. */
    int products() const;

    /** DPGs powered this cycle (executing + conflict-stalled). */
    int activeDpgs() const
    {
        return static_cast<int>(executed.size()) + waitingDpgs;
    }
};

/**
 * View of one SDPU cycle handed to the forEachSdpuCycle() visitor.
 * The executed pointers reference the caller's task array and are
 * only valid for the duration of the callback.
 */
struct SdpuCycleView
{
    std::span<const TileTask *const> executed;
    int waitingDpgs = 0;
    bool hadConflict = false;
    int totalProducts = 0; ///< Sum of products over executed.

    int
    activeDpgs() const
    {
        return static_cast<int>(executed.size()) + waitingDpgs;
    }
};

/**
 * Pack an ordered T3 task stream into SDPU cycles, invoking
 * @p fn(const SdpuCycleView &) once per cycle, in order. Performs no
 * heap allocation for typical task counts (<= 64 tasks per T1 task).
 *
 * @param tasks TMS-ordered tasks (zero-product tasks are skipped by
 *        the TMS and must not appear here).
 * @param num_dpgs parallel task limit per cycle.
 * @param mac_count multiplier budget per cycle.
 * @param check_conflicts enforce the one-writer-per-C-tile rule.
 *        True for MM tasks; false for MV tasks, whose partial sums
 *        land in distinct per-thread accumulator slots and are
 *        merged by the final shfl_gather (Algorithm 1), so same-tile
 *        writes in one cycle are safe.
 */
template <typename Fn>
void
forEachSdpuCycle(std::span<const TileTask> tasks, int num_dpgs,
                 int mac_count, bool check_conflicts, Fn &&fn)
{
    UNISTC_ASSERT(num_dpgs > 0 && mac_count > 0,
                  "bad SDPU configuration");

    SmallVector<const TileTask *, 64> pending;
    pending.reserve(tasks.size());
    for (const TileTask &t : tasks)
        pending.push_back(&t);

    SmallVector<const TileTask *, 16> executed;

    while (!pending.empty()) {
        executed.clear();

        SdpuCycleView cycle;
        int used_slots = 0;
        int used_dpgs = 0;
        std::uint16_t c_tiles = 0;

        // Tasks that stay pending are compacted in place, in order,
        // to the front of the list.
        std::size_t kept = 0;
        std::size_t scan = 0;
        for (; scan < pending.size() && used_dpgs < num_dpgs; ++scan) {
            const TileTask *task = pending[scan];
            UNISTC_ASSERT(task->products > 0 &&
                          task->products <= mac_count,
                          "T3 task products out of range");
            if (check_conflicts && testBit(c_tiles, task->cTileId())) {
                // Write conflict: the task's DPG waits this cycle.
                ++used_dpgs;
                ++cycle.waitingDpgs;
                cycle.hadConflict = true;
                pending[kept++] = task;
                continue;
            }
            if (used_slots + task->products > mac_count)
                break; // In-order concatenation: the SDPU fill stops here.
            used_slots += task->products;
            ++used_dpgs;
            c_tiles = setBit(c_tiles, task->cTileId());
            executed.push_back(task);
        }
        for (; scan < pending.size(); ++scan)
            pending[kept++] = pending[scan];
        pending.resize(kept);

        UNISTC_ASSERT(!executed.empty() || cycle.waitingDpgs > 0,
                      "SDPU cycle made no progress");
        // A cycle of pure conflict stalls cannot happen: the first
        // pending task always finds its C tile free.
        UNISTC_ASSERT(!executed.empty(),
                      "SDPU deadlock: no task executed");

        cycle.executed = std::span<const TileTask *const>(
            executed.data(), executed.size());
        cycle.totalProducts = used_slots;
        fn(std::as_const(cycle));
    }
}

/** Materialise the packed cycles (analysis / test convenience path). */
std::vector<SdpuCycle> scheduleSdpu(std::span<const TileTask> tasks,
                                    int num_dpgs, int mac_count,
                                    bool check_conflicts = true);

} // namespace unistc

#endif // UNISTC_UNISTC_SDPU_HH
