/**
 * @file
 * T3 tile task — the 4x4x4 unit of work the TMS emits. A T3 task is
 * C_tile(i,j) += A_tile(i,k) x B_tile(k,j); its workload is fully
 * described by the two 16-bit Lv2 tile bitmaps.
 */

#ifndef UNISTC_UNISTC_TILE_TASK_HH
#define UNISTC_UNISTC_TILE_TASK_HH

#include <cstdint>

#include "common/bitops.hh"

namespace unistc
{

/** One T3 (tile-level) task. */
struct TileTask
{
    std::int8_t i = 0; ///< C tile row (0..3).
    std::int8_t j = 0; ///< C tile column (0..3).
    std::int8_t k = 0; ///< Reduction tile index (0..3).

    std::uint16_t aTile = 0; ///< Lv2 bitmap of A tile (i, k).
    std::uint16_t bTile = 0; ///< Lv2 bitmap of B tile (k, j).

    int products = 0; ///< Intermediate products (<= 64).
    int segments = 0; ///< T4 dot-product segments (<= 16).

    int aElems = 0; ///< A tile elements in any product (<= 16).
    int bElems = 0; ///< B tile elements in any product (<= 16).

    /** C-tile identity used for write-conflict detection. */
    int cTileId() const { return i * 4 + j; }
};

/**
 * The T3 task of the tile pair (@p a_tile, @p b_tile) restricted to
 * @p n_cols output columns (4 for MM, 1 for MV tasks in the j = 0
 * tile column): its bitmaps and its four counts, with the tile
 * coordinates left at zero.
 */
inline TileTask
countTileTask(std::uint16_t a_tile, std::uint16_t b_tile, int n_cols)
{
    // One 64-bit word holds every product: lane r (bits 16r..16r+15)
    // is A row r broadcast into all four nibbles, ANDed with the
    // transposed B tile, whose nibble c is B column c. Bit 16r+4c+k is
    // then set iff A(r, k) x B(k, c) is a product of output (r, c).
    const std::uint64_t keep = (1ull << (4 * n_cols)) - 1u;
    const std::uint64_t b_cols = transpose4x4(b_tile) & keep;
    std::uint64_t a_rows = a_tile;
    a_rows = (a_rows | a_rows << 24) & 0x000000FF000000FFull;
    a_rows = (a_rows | a_rows << 12) & 0x000F000F000F000Full;
    const std::uint64_t match =
        (a_rows * 0x1111u) & (b_cols * 0x0001000100010001ull);

    TileTask t;
    t.aTile = a_tile;
    t.bTile = b_tile;
    t.products = popcount64(match);
    // One T4 segment per output with any product: a nonzero nibble.
    t.segments = popcount64((match | match >> 1 | match >> 2 |
                             match >> 3) & 0x1111111111111111ull);
    // A(r, k) is live iff it meets some B(k, c): OR the nibbles of
    // each lane. B(k, c) is live iff it meets some A(r, k): OR the
    // four lanes.
    t.aElems = popcount64((match | match >> 4 | match >> 8 |
                           match >> 12) & 0x000F000F000F000Full);
    t.bElems = popcount16(static_cast<std::uint16_t>(
        match | match >> 16 | match >> 32 | match >> 48));
    return t;
}

} // namespace unistc

#endif // UNISTC_UNISTC_TILE_TASK_HH
