/**
 * @file
 * Structural pattern of one 16x16 matrix block — the T1 task operand
 * every STC model consumes. Provides the two bitmap views the BBC
 * format encodes: the top-level 4x4 tile bitmap (Lv1) that steers the
 * TMS, and per-tile 4x4 element bitmaps (Lv2) that steer the DPGs.
 */

#ifndef UNISTC_BBC_BLOCK_PATTERN_HH
#define UNISTC_BBC_BLOCK_PATTERN_HH

#include <array>
#include <cstdint>

namespace unistc
{

class Rng;

/** Block geometry constants fixed by the paper's design. */
constexpr int kBlockSize = 16; ///< T1 task edge (16x16x16 MMA).
constexpr int kTileSize = 4;   ///< T3 task edge (4x4x4 tiles).
constexpr int kTilesPerEdge = kBlockSize / kTileSize; ///< 4 tiles/edge.

/**
 * 16x16 structural bitmap stored as one 16-bit row mask per row
 * (bit c of rows[r] set means element (r, c) is nonzero).
 */
class BlockPattern
{
  public:
    BlockPattern() = default;

    /**
     * All-ones pattern in the first @p width columns (1..16): a dense
     * block, or the partial last block column of a dense operand
     * whose width is not a multiple of 16.
     */
    static BlockPattern dense(int width = kBlockSize);

    /** i.i.d. Bernoulli(density) pattern drawn from @p rng. */
    static BlockPattern random(Rng &rng, double density);

    bool
    test(int r, int c) const
    {
        return (rows_[r] >> c) & 1u;
    }

    void
    set(int r, int c)
    {
        rows_[r] = static_cast<std::uint16_t>(rows_[r] | (1u << c));
    }

    /** 16-bit mask of row @p r. */
    std::uint16_t rowBits(int r) const { return rows_[r]; }

    /** Overwrite row @p r with @p bits (bulk row-writer fast path). */
    void setRowBits(int r, std::uint16_t bits) { rows_[r] = bits; }

    /** Raw row-mask array, for the bulk bitmap kernels. */
    const std::uint16_t *rowData() const { return rows_.data(); }

    /** 16-bit mask of column @p c. */
    std::uint16_t colBits(int c) const;

    /** Total nonzero elements in the block. */
    int nnz() const;

    /** True when the block holds no nonzeros. */
    bool empty() const;

    /**
     * Top-level (Lv1) bitmap: bit ti*4+tj set when the 4x4 tile at
     * tile-row ti / tile-col tj contains at least one nonzero.
     */
    std::uint16_t tileBitmap() const;

    /**
     * Bottom-level (Lv2) bitmap of tile (ti, tj): a row-major 4x4
     * element map (bit lr*4+lc).
     */
    std::uint16_t tilePattern(int ti, int tj) const;

    /** Number of nonzeros inside tile (ti, tj). */
    int tileNnz(int ti, int tj) const;

    /** Structural transpose. */
    BlockPattern transposed() const;

    /** Structural union (element-wise OR). */
    BlockPattern unionWith(const BlockPattern &other) const;

    bool operator==(const BlockPattern &other) const = default;

  private:
    std::array<std::uint16_t, kBlockSize> rows_{};
};

/**
 * Structural pattern of the product C = A * B of two blocks: C(r,c) is
 * nonzero iff some k has A(r,k) and B(k,c).
 */
BlockPattern blockProductPattern(const BlockPattern &a,
                                 const BlockPattern &b);

/**
 * Number of intermediate products of C = A * B:
 * sum_k colNnz_A(k) * rowNnz_B(k). The per-T1-task density quantity of
 * Table VII and Fig. 20 (max 16^3 = 4096).
 */
int blockProductCount(const BlockPattern &a, const BlockPattern &b);

/**
 * Matrix-vector specialisation: pattern of y = A * x where x is a
 * 16-entry segment with structural mask @p x_mask. Returns the 16-bit
 * mask of touched y entries.
 */
std::uint16_t blockMvPattern(const BlockPattern &a, std::uint16_t x_mask);

/** Intermediate products of y = A * x for mask @p x_mask. */
int blockMvProductCount(const BlockPattern &a, std::uint16_t x_mask);

/**
 * Embed a matrix-vector task as a matrix-matrix task: B has the x
 * segment replicated in column 0 (row k nonzero iff x_mask bit k).
 * Lets every StcModel share one MM entry point for Algorithm 1 tasks.
 */
BlockPattern vectorAsBlock(std::uint16_t x_mask);

} // namespace unistc

#endif // UNISTC_BBC_BLOCK_PATTERN_HH
