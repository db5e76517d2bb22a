/**
 * @file
 * BlockPattern tests: bitmap views, tile extraction, the structural
 * product helpers every STC model depends on, and the PatternMeta
 * summaries the models read in their place.
 */

#include <gtest/gtest.h>

#include <string>

#include "bbc/block_pattern.hh"
#include "bbc/pattern_meta.hh"
#include "common/bitops.hh"
#include "common/rng.hh"

namespace unistc
{
namespace
{

TEST(BlockPattern, SetTestAndRowColBits)
{
    BlockPattern p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.nonzeroCols(), 0u);
    p.set(3, 7);
    p.set(3, 0);
    p.set(12, 7);
    EXPECT_TRUE(p.test(3, 7));
    EXPECT_FALSE(p.test(7, 3));
    EXPECT_EQ(p.nnz(), 3);
    EXPECT_EQ(p.rowBits(3), (1u << 7) | 1u);
    EXPECT_EQ(p.colBits(7), (1u << 3) | (1u << 12));
    EXPECT_EQ(p.nonzeroCols(), (1u << 7) | 1u);
    EXPECT_FALSE(p.empty());
}

TEST(BlockPattern, DensePattern)
{
    const BlockPattern d = BlockPattern::dense();
    EXPECT_EQ(d.nnz(), 256);
    EXPECT_EQ(d.tileBitmap(), 0xFFFF);
    EXPECT_EQ(d.nonzeroCols(), 0xFFFF);
    for (int ti = 0; ti < 4; ++ti) {
        for (int tj = 0; tj < 4; ++tj)
            EXPECT_EQ(d.tilePattern(ti, tj), 0xFFFF);
    }
}

TEST(BlockPattern, TileViewsLocateElements)
{
    BlockPattern p;
    p.set(5, 10); // tile (1, 2), local (1, 2)
    EXPECT_EQ(p.tileBitmap(), 1u << bit4x4(1, 2));
    EXPECT_EQ(p.tilePattern(1, 2), 1u << bit4x4(1, 2));
    EXPECT_EQ(p.tilePattern(0, 0), 0u);
}

TEST(BlockPattern, TileNnzSumsToBlockNnz)
{
    Rng rng(77);
    const BlockPattern p = BlockPattern::random(rng, 0.3);
    int total = 0;
    for (int ti = 0; ti < 4; ++ti) {
        for (int tj = 0; tj < 4; ++tj)
            total += popcount16(p.tilePattern(ti, tj));
    }
    EXPECT_EQ(total, p.nnz());
}

TEST(BlockPattern, TransposeInvolution)
{
    Rng rng(78);
    const BlockPattern p = BlockPattern::random(rng, 0.2);
    const BlockPattern t = p.transposed();
    for (int r = 0; r < kBlockSize; ++r) {
        for (int c = 0; c < kBlockSize; ++c)
            EXPECT_EQ(p.test(r, c), t.test(c, r));
    }
    EXPECT_EQ(t.transposed(), p);
}

TEST(BlockProduct, PatternMatchesBruteForce)
{
    Rng rng(79);
    for (int trial = 0; trial < 10; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.15);
        const BlockPattern b = BlockPattern::random(rng, 0.15);
        const BlockPattern c = blockProductPattern(a, b);
        for (int r = 0; r < kBlockSize; ++r) {
            for (int j = 0; j < kBlockSize; ++j) {
                bool expect = false;
                for (int k = 0; k < kBlockSize; ++k)
                    expect |= a.test(r, k) && b.test(k, j);
                EXPECT_EQ(c.test(r, j), expect);
            }
        }
    }
}

TEST(BlockProduct, CountMatchesBruteForce)
{
    Rng rng(80);
    for (int trial = 0; trial < 10; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.2);
        const BlockPattern b = BlockPattern::random(rng, 0.2);
        int expect = 0;
        for (int r = 0; r < kBlockSize; ++r) {
            for (int j = 0; j < kBlockSize; ++j) {
                for (int k = 0; k < kBlockSize; ++k) {
                    expect += (a.test(r, k) && b.test(k, j)) ? 1 : 0;
                }
            }
        }
        EXPECT_EQ(blockProductCount(a, b), expect);
    }
}

TEST(BlockProduct, DenseTimesDenseIsFull)
{
    const BlockPattern d = BlockPattern::dense();
    EXPECT_EQ(blockProductCount(d, d), 16 * 16 * 16);
    EXPECT_EQ(blockProductPattern(d, d).nnz(), 256);
}

TEST(BlockMv, PatternAndCount)
{
    BlockPattern a;
    a.set(2, 5);
    a.set(2, 6);
    a.set(9, 6);
    // x has entries at 5 and 11 only.
    const std::uint16_t x = (1u << 5) | (1u << 11);
    // Only row 2 matches.
    EXPECT_EQ(blockProductPattern(a, vectorAsBlock(x)).colBits(0),
              1u << 2);
    EXPECT_EQ(blockMvProductCount(a, x), 1);

    const std::uint16_t full = 0xFFFF;
    EXPECT_EQ(blockMvProductCount(a, full), 3);
    EXPECT_EQ(blockProductPattern(a, vectorAsBlock(full)).colBits(0),
              (1u << 2) | (1u << 9));
}

TEST(BlockMv, VectorAsBlockConsistency)
{
    Rng rng(81);
    const BlockPattern a = BlockPattern::random(rng, 0.25);
    const std::uint16_t x = 0b1010'1100'0101'0011;
    const BlockPattern b = vectorAsBlock(x);
    // The MM product against the embedded vector equals the MV form.
    EXPECT_EQ(blockProductCount(a, b), blockMvProductCount(a, x));
    const BlockPattern c = blockProductPattern(a, b);
    for (int r = 0; r < kBlockSize; ++r) {
        EXPECT_EQ(c.test(r, 0), (a.rowBits(r) & x) != 0);
    }
}

TEST(BlockPattern, RandomDensityIsPlausible)
{
    Rng rng(82);
    int total = 0;
    const int trials = 50;
    for (int t = 0; t < trials; ++t)
        total += BlockPattern::random(rng, 0.3).nnz();
    const double mean = static_cast<double>(total) / trials / 256.0;
    EXPECT_NEAR(mean, 0.3, 0.05);
}

/**
 * Check every PatternMeta field of @p p against the BlockPattern
 * accessors, with row/column/total counts brute-forced from test().
 */
void
expectMetaMatchesAccessors(const BlockPattern &p)
{
    const PatternMeta meta = computePatternMeta(p);
    for (int c = 0; c < kBlockSize; ++c)
        ASSERT_EQ(meta.cols[c], p.colBits(c)) << "c=" << c;
    for (int ti = 0; ti < kTilesPerEdge; ++ti) {
        for (int tj = 0; tj < kTilesPerEdge; ++tj) {
            ASSERT_EQ(meta.tiles[ti * kTilesPerEdge + tj],
                      p.tilePattern(ti, tj))
                << "tile " << ti << "," << tj;
        }
    }
    ASSERT_EQ(meta.tileBits, p.tileBitmap());

    int nnz = 0;
    for (int i = 0; i < kBlockSize; ++i) {
        int row = 0, col = 0;
        for (int j = 0; j < kBlockSize; ++j) {
            row += p.test(i, j) ? 1 : 0;
            col += p.test(j, i) ? 1 : 0;
        }
        ASSERT_EQ(meta.rowCnt[i], row) << "row " << i;
        ASSERT_EQ(meta.colCnt[i], col) << "col " << i;
        nnz += row;
    }
    ASSERT_EQ(meta.nnz, nnz);
    ASSERT_EQ(p.nnz(), nnz);
}

TEST(PatternMeta, MatchesAccessorsOnEdgeBlocks)
{
    ASSERT_NO_FATAL_FAILURE(expectMetaMatchesAccessors(BlockPattern{}));
    ASSERT_NO_FATAL_FAILURE(
        expectMetaMatchesAccessors(BlockPattern::dense()));
    for (int r = 0; r < kBlockSize; ++r) {
        for (int c = 0; c < kBlockSize; ++c) {
            SCOPED_TRACE("single bit " + std::to_string(r) + "," +
                         std::to_string(c));
            BlockPattern p;
            p.set(r, c);
            ASSERT_NO_FATAL_FAILURE(expectMetaMatchesAccessors(p));
        }
    }
}

TEST(PatternMeta, MatchesAccessorsOnRandomBlocks)
{
    Rng rng(83);
    for (const double density : {0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9}) {
        for (int trial = 0; trial < 20; ++trial) {
            SCOPED_TRACE("density " + std::to_string(density) +
                         " trial " + std::to_string(trial));
            ASSERT_NO_FATAL_FAILURE(expectMetaMatchesAccessors(
                BlockPattern::random(rng, density)));
        }
    }
    for (int trial = 0; trial < 100; ++trial) {
        const auto mask =
            static_cast<std::uint16_t>(rng.nextInRange(0, 0xFFFF));
        SCOPED_TRACE("vectorAsBlock mask " + std::to_string(mask));
        ASSERT_NO_FATAL_FAILURE(
            expectMetaMatchesAccessors(vectorAsBlock(mask)));
    }
}

} // namespace
} // namespace unistc
