/**
 * @file
 * T3 tile task — the 4x4x4 unit of work the TMS emits. A T3 task is
 * C_tile(i,j) += A_tile(i,k) x B_tile(k,j); its workload is fully
 * described by the two 16-bit Lv2 tile bitmaps.
 */

#ifndef UNISTC_UNISTC_TILE_TASK_HH
#define UNISTC_UNISTC_TILE_TASK_HH

#include <cstdint>

#include "bbc/block_pattern.hh"
#include "common/bitops.hh"

namespace unistc
{

/** A 16x16x16 T1 task expands to at most 4x4x4 = 64 T3 tasks. */
constexpr int kMaxTileTasks =
    kTilesPerEdge * kTilesPerEdge * kTilesPerEdge;

/** One T3 (tile-level) task. */
struct TileTask
{
    std::int8_t i = 0; ///< C tile row (0..3).
    std::int8_t j = 0; ///< C tile column (0..3).
    std::int8_t k = 0; ///< Reduction tile index (0..3).

    std::uint16_t aTile = 0; ///< Lv2 bitmap of A tile (i, k).
    std::uint16_t bTile = 0; ///< Lv2 bitmap of B tile (k, j).

    int products = 0; ///< Intermediate products (<= 64).

    /**
     * Every product of the task: bit 16r+4c+k is set iff
     * A(r, k) x B(k, c) is a product of output (r, c). So 16-bit lane r
     * is output row r, and nibble c of the lane is output (r, c).
     */
    std::uint64_t productBits = 0;

    /** T4 segments (<= 16): outputs with a product, nonzero nibbles. */
    int
    segments() const
    {
        return popcount64((productBits | productBits >> 1 |
                           productBits >> 2 | productBits >> 3) &
                          0x1111111111111111ull);
    }

    /** A elements in a product (<= 16): OR each lane's nibbles. */
    int
    aElems() const
    {
        return popcount64((productBits | productBits >> 4 |
                           productBits >> 8 | productBits >> 12) &
                          0x000F000F000F000Full);
    }

    /** B elements in a product (<= 16): OR the four lanes. */
    int
    bElems() const
    {
        return popcount16(static_cast<std::uint16_t>(
            productBits | productBits >> 16 | productBits >> 32 |
            productBits >> 48));
    }

    /** C-tile identity used for write-conflict detection. */
    int cTileId() const { return i * 4 + j; }
};

/**
 * The T3 task of the tile pair (@p a_tile, @p b_tile) restricted to
 * @p n_cols output columns (4 for MM, 1 for MV tasks in the j = 0
 * tile column): its bitmaps, product word and product count, with the
 * tile coordinates left at zero.
 */
inline TileTask
countTileTask(std::uint16_t a_tile, std::uint16_t b_tile, int n_cols)
{
    // Lane r of the product word is A row r broadcast into all four
    // nibbles, ANDed with the transposed B tile, whose nibble c is B
    // column c.
    const std::uint64_t keep = (1ull << (4 * n_cols)) - 1u;
    const std::uint64_t b_cols = transpose4x4(b_tile) & keep;
    std::uint64_t a_rows = a_tile;
    a_rows = (a_rows | a_rows << 24) & 0x000000FF000000FFull;
    a_rows = (a_rows | a_rows << 12) & 0x000F000F000F000Full;

    TileTask t;
    t.aTile = a_tile;
    t.bTile = b_tile;
    t.productBits =
        (a_rows * 0x1111u) & (b_cols * 0x0001000100010001ull);
    t.products = popcount64(t.productBits);
    return t;
}

} // namespace unistc

#endif // UNISTC_UNISTC_TILE_TASK_HH
