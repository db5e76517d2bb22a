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

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
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
 * heap allocation: the pending tasks are the set bits of one 64-bit
 * mask, walked LSB first, so a span may hold at most kMaxTileTasks
 * tasks (the T3 tasks of one T1 task).
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
    UNISTC_ASSERT(tasks.size() <= static_cast<std::size_t>(kMaxTileTasks),
                  "SDPU span of ", tasks.size(), " T3 tasks exceeds ",
                  kMaxTileTasks);

    // Bit n is set while tasks[n] waits. A task leaves the mask when
    // it executes, so the bits left keep their stream order.
    std::uint64_t pending =
        tasks.size() == static_cast<std::size_t>(kMaxTileTasks)
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << tasks.size()) - 1u;
    std::array<const TileTask *, kMaxTileTasks> executed{};

    while (pending) {
        SdpuCycleView cycle;
        std::size_t n_executed = 0;
        int used_slots = 0;
        int used_dpgs = 0;
        std::uint16_t c_tiles = 0;

        for (std::uint64_t scan = pending;
             scan && used_dpgs < num_dpgs; scan &= scan - 1u) {
            const int n = std::countr_zero(scan);
            const TileTask &task = tasks[n];
            UNISTC_ASSERT(task.products > 0 &&
                          task.products <= mac_count,
                          "T3 task products out of range");
            if (check_conflicts && testBit(c_tiles, task.cTileId())) {
                // Write conflict: the task's DPG waits this cycle.
                ++used_dpgs;
                ++cycle.waitingDpgs;
                cycle.hadConflict = true;
                continue;
            }
            if (used_slots + task.products > mac_count)
                break; // In-order concatenation: the SDPU fill stops here.
            used_slots += task.products;
            ++used_dpgs;
            c_tiles = setBit(c_tiles, task.cTileId());
            pending &= ~(std::uint64_t{1} << n);
            executed[n_executed++] = &task;
        }

        // A cycle of pure conflict stalls cannot happen: the first
        // pending task always finds its C tile free.
        UNISTC_ASSERT(n_executed > 0, "SDPU deadlock: no task executed");

        cycle.executed =
            std::span<const TileTask *const>(executed.data(), n_executed);
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
