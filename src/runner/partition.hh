/**
 * @file
 * Static load balancing (§V-A): the 'warpRow', 'warpIndex' and
 * 'warpRowId' variables of Algorithms 1 and 2 configure each warp's
 * data-processing range. This module computes those tables: block
 * rows are split into per-warp work ranges so that every warp
 * receives a near-equal number of stored blocks (the unit of T1
 * work), with long block rows split across warps.
 */

#ifndef UNISTC_RUNNER_PARTITION_HH
#define UNISTC_RUNNER_PARTITION_HH

#include <cstdint>
#include <vector>

#include "bbc/bbc_matrix.hh"

namespace unistc
{

/** One warp's work assignment. */
struct WarpRange
{
    int rowId = 0;            ///< Block row the warp starts in.
    std::int64_t begin = 0;   ///< First block index (global).
    std::int64_t end = 0;     ///< One past the last block index.

    std::int64_t size() const { return end - begin; }
};

/** The §V-A warpRowId / warpIndex tables. */
struct WarpPartition
{
    std::vector<WarpRange> warps;

    /** Max warp load divided by mean warp load (1.0 = perfect). */
    double imbalance() const;
};

/**
 * Split the stored blocks of @p m into @p num_warps contiguous
 * ranges of near-equal size. Ranges may start mid-row (the split
 * long rows §III-B says fixed T3 shapes struggle with); empty warps
 * are possible only when num_warps exceeds the block count. Empty
 * and all-zero matrices (including a default-constructed BbcMatrix)
 * yield num_warps empty ranges.
 */
WarpPartition partitionBlocks(const BbcMatrix &m, int num_warps);

/**
 * Naive row-granular partition (whole block rows per warp, one
 * contiguous row chunk each) — the baseline the balanced scheme is
 * compared against.
 */
WarpPartition partitionRows(const BbcMatrix &m, int num_warps);

/**
 * Row-ordered walk over the stored blocks of a BBC matrix: yields
 * every (block row, global block index) pair exactly once, in the
 * rowPtr/colIdx order Algorithms 1 and 2 prescribe. This is the loop
 * skeleton the SpMSpV and SpMM task streams share (previously two
 * hand-rolled copies in the runners).
 */
class BlockRowCursor
{
  public:
    explicit BlockRowCursor(const BbcMatrix &m) : m_(&m) {}

    /** Advance to the next stored block; false when exhausted. */
    bool next();

    /** Block row of the current block (valid after next() == true). */
    int blockRow() const { return row_; }

    /** Global block index of the current block. */
    std::int64_t blockIndex() const { return blk_; }

  private:
    const BbcMatrix *m_;
    int row_ = 0;
    std::int64_t blk_ = -1;
};

} // namespace unistc

#endif // UNISTC_RUNNER_PARTITION_HH
