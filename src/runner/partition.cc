#include "runner/partition.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unistc
{

double
WarpPartition::imbalance() const
{
    if (warps.empty())
        return 1.0;
    std::int64_t max_load = 0;
    std::int64_t total = 0;
    for (const auto &w : warps) {
        max_load = std::max(max_load, w.size());
        total += w.size();
    }
    if (total == 0)
        return 1.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(warps.size());
    return static_cast<double>(max_load) / mean;
}

namespace
{

/** Block row containing global block index @p blk. */
int
rowOfBlock(const BbcMatrix &m, std::int64_t blk)
{
    int lo = 0;
    int hi = m.blockRows();
    while (lo + 1 < hi) {
        const int mid = (lo + hi) / 2;
        if (m.rowPtr()[mid] <= blk)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

/** @p num_warps empty ranges — the degenerate-matrix partition. */
WarpPartition
emptyPartition(int num_warps)
{
    WarpPartition part;
    part.warps.assign(static_cast<std::size_t>(num_warps),
                      WarpRange{});
    return part;
}

} // namespace

WarpPartition
partitionBlocks(const BbcMatrix &m, int num_warps)
{
    UNISTC_ASSERT(num_warps > 0, "need at least one warp");
    // Empty and all-zero matrices partition into empty ranges; the
    // division logic below would handle blocks == 0 too, but the
    // explicit guard keeps the zero-row contract obvious (and safe
    // against a default-constructed BbcMatrix with blockRows 0).
    const std::int64_t blocks = m.numBlocks();
    if (blocks == 0 || m.blockRows() == 0)
        return emptyPartition(num_warps);
    WarpPartition part;
    for (int w = 0; w < num_warps; ++w) {
        WarpRange range;
        range.begin = blocks * w / num_warps;
        range.end = blocks * (w + 1) / num_warps;
        range.rowId =
            range.size() > 0 ? rowOfBlock(m, range.begin) : 0;
        part.warps.push_back(range);
    }
    return part;
}

bool
BlockRowCursor::next()
{
    ++blk_;
    if (blk_ >= m_->numBlocks())
        return false;
    // Stored blocks are row-major, so the owning row only moves
    // forward; skip rows with no stored blocks.
    while (m_->rowPtr()[row_ + 1] <= blk_)
        ++row_;
    return true;
}

WarpPartition
partitionRows(const BbcMatrix &m, int num_warps)
{
    UNISTC_ASSERT(num_warps > 0, "need at least one warp");
    const int rows = m.blockRows();
    // A zero-row matrix has rowPtr == {0}; indexing rowPtr[row_end]
    // with row_end == 0 would be fine, but return the explicit empty
    // partition for symmetry with partitionBlocks.
    if (rows == 0 || m.numBlocks() == 0)
        return emptyPartition(num_warps);
    WarpPartition part;
    for (int w = 0; w < num_warps; ++w) {
        const int row_begin = rows * w / num_warps;
        const int row_end = rows * (w + 1) / num_warps;
        WarpRange range;
        range.rowId = row_begin;
        range.begin = m.rowPtr()[row_begin];
        range.end = m.rowPtr()[row_end];
        part.warps.push_back(range);
    }
    return part;
}

} // namespace unistc
