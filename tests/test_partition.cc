/**
 * @file
 * Tests for the §V-A static load-balancing tables.
 */

#include <gtest/gtest.h>

#include "corpus/generators.hh"
#include "runner/partition.hh"
#include "sparse/convert.hh"

namespace unistc
{
namespace
{

/** Blocks the warp ranges of @p p cover, summed. */
std::int64_t
coveredBlocks(const WarpPartition &p)
{
    std::int64_t total = 0;
    for (const auto &w : p.warps)
        total += w.size();
    return total;
}

TEST(Partition, BlockPartitionCoversEverything)
{
    const CsrMatrix m = genRandomUniform(200, 200, 0.05, 881);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    for (int warps : {1, 2, 7, 32}) {
        const WarpPartition p = partitionBlocks(bbc, warps);
        ASSERT_EQ(p.warps.size(), static_cast<std::size_t>(warps));
        // Ranges are contiguous and ordered.
        for (int w = 1; w < warps; ++w) {
            EXPECT_EQ(p.warps[w].begin, p.warps[w - 1].end);
        }
        EXPECT_EQ(p.warps.front().begin, 0);
        EXPECT_EQ(p.warps.back().end, bbc.numBlocks());
    }
}

TEST(Partition, BlockPartitionIsNearlyPerfect)
{
    const CsrMatrix m = genLongRows(256, 8, 0.7, 0.01, 882);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const WarpPartition p = partitionBlocks(bbc, 8);
    // Contiguous equal split: imbalance bounded by one block.
    EXPECT_LT(p.imbalance(), 1.1);
}

TEST(Partition, RowPartitionSuffersOnLongRows)
{
    // Arrow matrices (dense head rows) break row-granular splits
    // (§III-B): the balanced block partition must be strictly better.
    const CsrMatrix m = genArrow(256, 32, 0.8, 4, 0.9, 883);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const WarpPartition rows = partitionRows(bbc, 8);
    const WarpPartition blocks = partitionBlocks(bbc, 8);
    EXPECT_EQ(coveredBlocks(rows), bbc.numBlocks());
    EXPECT_GT(rows.imbalance(), blocks.imbalance());
    EXPECT_GT(rows.imbalance(), 1.5);
}

TEST(Partition, RowIdPointsAtOwningRow)
{
    const CsrMatrix m = genBanded(128, 8, 0.5, 884);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const WarpPartition p = partitionBlocks(bbc, 5);
    for (const auto &w : p.warps) {
        if (w.size() == 0)
            continue;
        EXPECT_GE(w.begin, bbc.rowPtr()[w.rowId]);
        EXPECT_LT(w.begin, bbc.rowPtr()[w.rowId + 1]);
    }
}

TEST(Partition, MoreWarpsThanBlocks)
{
    CooMatrix coo(32, 32);
    coo.add(0, 0, 1.0);
    coo.add(20, 20, 1.0);
    const BbcMatrix bbc =
        BbcMatrix::fromCsr(cooToCsr(std::move(coo)));
    const WarpPartition p = partitionBlocks(bbc, 8);
    EXPECT_EQ(coveredBlocks(p), bbc.numBlocks());
    int non_empty = 0;
    for (const auto &w : p.warps)
        non_empty += w.size() > 0 ? 1 : 0;
    EXPECT_EQ(non_empty, 2);
}

TEST(Partition, DefaultConstructedMatrixYieldsEmptyRanges)
{
    const BbcMatrix empty;
    for (const auto &part : {partitionBlocks(empty, 4),
                            partitionRows(empty, 4)}) {
        ASSERT_EQ(static_cast<int>(part.warps.size()), 4);
        for (const auto &w : part.warps)
            EXPECT_EQ(w.size(), 0);
        EXPECT_LE(part.imbalance(), 1.0); // no spurious imbalance
    }
}

TEST(Partition, ZeroNnzMatrixYieldsEmptyRanges)
{
    // A shaped matrix with no entries must partition like the empty
    // one: no warp may receive a phantom block.
    const BbcMatrix bbc = BbcMatrix::fromCsr(
        CsrMatrix(64, 64, std::vector<std::int64_t>(65, 0), {}, {}));
    EXPECT_EQ(bbc.numBlocks(), 0);
    const WarpPartition p = partitionBlocks(bbc, 8);
    for (const auto &w : p.warps)
        EXPECT_EQ(w.size(), 0);
}

} // namespace
} // namespace unistc
