/**
 * @file
 * Precomputed per-block pattern summaries. Every STC model consumes
 * the same handful of derived quantities from a BlockPattern — column
 * masks, per-tile element bitmaps, per-row/column nonzero counts —
 * and in a lineup run (--arch a,b,c) each model used to rederive them
 * from the raw row masks. PatternMeta computes them once per block
 * via the bulk transpose kernel so the fan-out cost is paid once per
 * task stream instead of once per model.
 */

#ifndef UNISTC_BBC_PATTERN_META_HH
#define UNISTC_BBC_PATTERN_META_HH

#include <array>
#include <cstdint>

#include "bbc/block_pattern.hh"

namespace unistc
{

/**
 * The tile words of one 16x16 block: its Lv1 tile bitmap and the Lv2
 * element bitmap at each of its 16 tile positions, 0 where a tile is
 * empty. They are what stc.load.meta puts in the Meta Buffer and all
 * the TMS reads (§IV-A-1). BbcMatrix::tileWords() reads them from a
 * stored block; computePatternMeta() derives them from a pattern.
 */
struct TileWords
{
    /**
     * tiles[ti*4+tj] = Lv2 element bitmap of tile (ti, tj)
     * (== pattern.tilePattern(ti, tj)).
     */
    std::array<std::uint16_t, kBlockSize> tiles{};

    /** Lv1 tile bitmap (== pattern.tileBitmap()). */
    std::uint16_t tileBits = 0;
};

/** Derived summaries of one 16x16 block pattern. */
struct PatternMeta : TileWords
{
    /** cols[c] = 16-bit mask of column c (== pattern.colBits(c)). */
    std::array<std::uint16_t, kBlockSize> cols{};

    /** colCnt[c] = nonzeros in column c. */
    std::array<std::uint8_t, kBlockSize> colCnt{};

    /** rowCnt[r] = nonzeros in row r. */
    std::array<std::uint8_t, kBlockSize> rowCnt{};

    /** Total nonzeros (== pattern.nnz()). */
    std::uint16_t nnz = 0;
};

/** Compute all summaries of @p pattern in one pass. */
PatternMeta computePatternMeta(const BlockPattern &pattern);

} // namespace unistc

#endif // UNISTC_BBC_PATTERN_META_HH
