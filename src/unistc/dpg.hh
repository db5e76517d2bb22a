/**
 * @file
 * Dot-Product Generator (§IV-A-2). A DPG consumes one T3 task per
 * cycle: it overlays the outer product of the two Lv2 bitmaps into a
 * per-output index-match map, emits one 8-bit T4 task code per
 * nonzero output (upper nibble: accumulation target = rank of the
 * output among the C tile's nonzeros; lower nibble: the 4-bit sparse
 * dot-product pattern), and fills the Dot-product queue in a Z-shaped
 * order that minimises operand broadcast range.
 */

#ifndef UNISTC_UNISTC_DPG_HH
#define UNISTC_UNISTC_DPG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/small_vector.hh"

namespace unistc
{

/** Queue fill orders (§IV-A-2 ④; Z is the design point). */
enum class FillOrder
{
    ZShaped,  ///< Morton order walking rows first (default).
    NShaped,  ///< Morton order walking columns first (ablation).
    RowMajor, ///< Plain row-major (ablation).
    ColMajor, ///< Plain column-major (ablation).
};

/** Printable name of a fill order. */
const char *toString(FillOrder order);

/** One T4 (vector dot-product) task. */
struct T4Task
{
    std::uint8_t target = 0;  ///< Rank of (r, c) in C tile nonzeros.
    std::uint8_t pattern = 0; ///< 4-bit index-match bitmap.
    std::int8_t r = 0;        ///< Output row within the tile.
    std::int8_t c = 0;        ///< Output column within the tile.

    /** Segment length = matched index pairs (1..4). */
    int len() const;

    /** The paper's 8-bit task code (e.g. 0x49 in Fig. 9). */
    std::uint8_t code() const;
};

/**
 * Expand a T3 task into its T4 tasks.
 *
 * @param a_tile Lv2 bitmap of the A tile (row-major 4x4).
 * @param b_tile Lv2 bitmap of the B tile.
 * @param n_cols output columns considered (4 for MM, 1 for MV).
 * @param order queue fill order.
 */
std::vector<T4Task> expandTileTask(std::uint16_t a_tile,
                                   std::uint16_t b_tile, int n_cols,
                                   FillOrder order
                                   = FillOrder::ZShaped);

/** A T3 task expands to at most 16 T4 tasks (one per C tile slot). */
using T4TaskList = SmallVector<T4Task, 16>;

/** Allocation-free variant of expandTileTask (the hot path). */
T4TaskList expandTileTaskInline(std::uint16_t a_tile,
                                std::uint16_t b_tile, int n_cols,
                                FillOrder order = FillOrder::ZShaped);

/**
 * Maximum multiplier-index distance between consecutive uses of the
 * same operand when the given T4 sequence is concatenated onto the
 * SDPU lanes — the broadcast-range quantity §IV-A-2 bounds at 5 for
 * A and 9 for B under the Z-shaped order.
 */
struct BroadcastRange
{
    int maxRangeA = 0;
    int maxRangeB = 0;
};
BroadcastRange broadcastRange(std::span<const T4Task> tasks);

} // namespace unistc

#endif // UNISTC_UNISTC_DPG_HH
