/**
 * @file
 * BBC format tests: construction from CSR, exact round-trips, the
 * two-level pointer invariants, storage accounting and file I/O.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "bbc/bbc_io.hh"
#include "bbc/bbc_matrix.hh"
#include "common/bitops.hh"
#include "corpus/dlmc.hh"
#include "corpus/generators.hh"
#include "corpus/representative.hh"
#include "sparse/convert.hh"

namespace unistc
{
namespace
{

class BbcRoundTrip : public ::testing::TestWithParam<double>
{
};

TEST_P(BbcRoundTrip, CsrToBbcToCsrIsLossless)
{
    const CsrMatrix m = genRandomUniform(100, 84, GetParam(), 31);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    EXPECT_EQ(bbc.nnz(), m.nnz());
    EXPECT_TRUE(bbc.toCsr().approxEquals(m, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Densities, BbcRoundTrip,
                         ::testing::Values(0.001, 0.01, 0.05, 0.2,
                                           0.7));

TEST(BbcMatrix, EmptyMatrix)
{
    const CsrMatrix m(40, 40);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    EXPECT_EQ(bbc.numBlocks(), 0);
    EXPECT_EQ(bbc.nnz(), 0);
    EXPECT_TRUE(bbc.toCsr().approxEquals(m, 0.0));
}

TEST(BbcMatrix, SingleElement)
{
    CooMatrix coo(40, 40);
    coo.add(19, 33, 5.5);
    const BbcMatrix bbc = BbcMatrix::fromCsr(cooToCsr(std::move(coo)));
    ASSERT_EQ(bbc.numBlocks(), 1);
    // (19, 33) sits in block (1, 2), tile (0, 0) of that block at
    // local (3, 1).
    EXPECT_EQ(bbc.colIdx()[0], 2);
    const BlockPattern p = bbc.blockPattern(0);
    EXPECT_TRUE(p.test(3, 1));
    EXPECT_EQ(p.nnz(), 1);
    EXPECT_EQ(popcount16(bbc.lv1()[0]), 1);
    const auto dense = bbc.blockDense(0);
    EXPECT_DOUBLE_EQ(dense[3 * kBlockSize + 1], 5.5);
}

TEST(BbcMatrix, BlockPatternMatchesCsrStructure)
{
    // From one-element tiles to full ones, on a square matrix and on
    // the edge-block shapes of NonMultipleOf16Shapes.
    for (const auto &[rows, cols] :
         {std::pair{64, 64}, {17, 31}, {15, 16}, {33, 7}, {100, 3}}) {
        for (const double density : {0.001, 0.01, 0.08, 0.3, 0.7, 1.0}) {
            const CsrMatrix m = genRandomUniform(rows, cols, density, 32);
            const BbcMatrix bbc = BbcMatrix::fromCsr(m);
            for (int br = 0; br < bbc.blockRows(); ++br) {
                for (std::int64_t blk = bbc.rowPtr()[br];
                     blk < bbc.rowPtr()[br + 1]; ++blk) {
                    const BlockPattern pattern = bbc.blockPattern(blk);
                    // The stored tile words are the pattern's.
                    const PatternMeta meta = computePatternMeta(pattern);
                    const TileWords words = bbc.tileWords(blk);
                    ASSERT_EQ(words.tileBits, meta.tileBits)
                        << rows << "x" << cols << " at " << density
                        << ": block " << blk;
                    ASSERT_EQ(words.tiles, meta.tiles)
                        << rows << "x" << cols << " at " << density
                        << ": block " << blk;
                    for (int lr = 0; lr < kBlockSize; ++lr) {
                        for (int lc = 0; lc < kBlockSize; ++lc) {
                            const int r = br * kBlockSize + lr;
                            const int c =
                                bbc.colIdx()[blk] * kBlockSize + lc;
                            const bool nz = r < m.rows() &&
                                c < m.cols() && m.at(r, c) != 0.0;
                            ASSERT_EQ(pattern.test(lr, lc), nz)
                                << rows << "x" << cols << " at "
                                << density << ": (" << r << ", " << c
                                << ")";
                        }
                    }
                }
            }
        }
    }
}

TEST(BbcMatrix, Lv1MatchesPatternTileBitmap)
{
    const CsrMatrix m = genRandomUniform(80, 80, 0.05, 33);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    for (std::int64_t blk = 0; blk < bbc.numBlocks(); ++blk) {
        EXPECT_EQ(bbc.lv1()[blk],
                  bbc.blockPattern(blk).tileBitmap());
    }
}

TEST(BbcMatrix, ValPtrLv2OffsetsAreTilePrefixSums)
{
    const CsrMatrix m = genRandomUniform(48, 48, 0.15, 34);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    for (std::int64_t blk = 0; blk < bbc.numBlocks(); ++blk) {
        const std::int64_t base = bbc.tileBase(blk);
        int offset = 0;
        for (int t = 0; t < popcount16(bbc.lv1()[blk]); ++t) {
            EXPECT_EQ(bbc.valPtrLv2()[base + t], offset);
            offset += popcount16(bbc.lv2()[base + t]);
        }
    }
}

TEST(BbcMatrix, NnzPerBlockAndStorage)
{
    const CsrMatrix dense_band = genBanded(96, 12, 0.9, 35);
    const BbcMatrix bbc = BbcMatrix::fromCsr(dense_band);
    EXPECT_GT(bbc.nnzPerBlock(), 1.0);
    // Storage = metadata + 8 bytes per value.
    EXPECT_EQ(bbc.storageBytes(),
              bbc.metadataBytes() +
                  static_cast<std::uint64_t>(bbc.nnz()) * 8);
    // For a dense-ish band, BBC must beat CSR (the Fig. 15 claim for
    // NnzPB > 3.57).
    EXPECT_GT(bbc.nnzPerBlock(), 3.57);
    EXPECT_LT(bbc.storageBytes(), dense_band.storageBytes());
}

TEST(BbcMatrix, StorageBytesScalesWithValueWidth)
{
    // Regression: storageBytes() used to hard-code 8 B/value; FP32
    // machine configs (MachineConfig::bytesPerValue() == 4) need the
    // width parameterised. Metadata is width-independent.
    const CsrMatrix m = genBanded(64, 8, 0.8, 37);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const std::uint64_t nnz = static_cast<std::uint64_t>(bbc.nnz());
    EXPECT_EQ(bbc.storageBytes(), bbc.metadataBytes() + nnz * 8);
    EXPECT_EQ(bbc.storageBytes(4), bbc.metadataBytes() + nnz * 4);
    EXPECT_EQ(bbc.storageBytes() - bbc.storageBytes(4), nnz * 4);
}

TEST(BbcMatrix, SparseMatrixBbcOverheadIsBounded)
{
    // Hyper-sparse: one element per block at most; BBC metadata may
    // exceed CSR's but stays within a small factor.
    const CsrMatrix m = genRandomUniform(256, 256, 0.0005, 36);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    EXPECT_LE(bbc.storageBytes(), m.storageBytes() * 4);
}

TEST(BbcIo, SaveLoadRoundTrip)
{
    const CsrMatrix m = genRandomUniform(72, 72, 0.07, 37);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const std::string path = testing::TempDir() + "/unistc_t.bbc";
    saveBbcFile(path, bbc);
    const BbcMatrix back = loadBbcFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(back.rows(), bbc.rows());
    EXPECT_EQ(back.cols(), bbc.cols());
    EXPECT_EQ(back.numBlocks(), bbc.numBlocks());
    EXPECT_EQ(back.lv1(), bbc.lv1());
    EXPECT_EQ(back.lv2(), bbc.lv2());
    EXPECT_EQ(back.valPtrLv2(), bbc.valPtrLv2());
    EXPECT_TRUE(back.toCsr().approxEquals(m, 0.0));
}

// toCsr walks the block rows itself: empty block rows before, between
// and after the stored ones round-trip exactly.
TEST(BbcMatrix, RoundTripAcrossEmptyBlockRows)
{
    CooMatrix coo(100, 40);
    coo.add(20, 3, 1.5);    // block row 1
    coo.add(21, 35, -2.0);  // block row 1, another block column
    coo.add(70, 17, 4.25);  // block row 4
    const CsrMatrix m = cooToCsr(std::move(coo));
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    ASSERT_EQ(bbc.blockRows(), 7);
    EXPECT_EQ(bbc.rowPtr(),
              (std::vector<std::int64_t>{0, 0, 2, 2, 2, 3, 3, 3}));
    EXPECT_TRUE(bbc.toCsr().approxEquals(m, 0.0));
}

TEST(BbcMatrix, NonMultipleOf16Shapes)
{
    // Shapes straddling block boundaries exercise edge blocks.
    for (const auto &[r, c] : {std::pair{17, 31}, {15, 16},
                               {33, 7}, {100, 3}}) {
        const CsrMatrix m = genRandomUniform(r, c, 0.2, 38 + r);
        const BbcMatrix bbc = BbcMatrix::fromCsr(m);
        EXPECT_TRUE(bbc.toCsr().approxEquals(m, 0.0))
            << r << "x" << c;
    }
}

/** The eight BBC arrays, as referenceFromCsr() emits them. */
struct BbcArrays
{
    std::vector<std::int64_t> rowPtr;
    std::vector<int> colIdx;
    std::vector<std::uint16_t> lv1;
    std::vector<std::int64_t> tileBase;
    std::vector<std::uint16_t> lv2;
    std::vector<std::int64_t> valPtrLv1;
    std::vector<std::uint8_t> valPtrLv2;
    std::vector<double> vals;
};

// The one-pass conversion fromCsr used before its per-tile value
// cursors: each block row copies its values into a dense 16x16
// scratch block per block column, then reads them back tile by tile.
BbcArrays
referenceFromCsr(const CsrMatrix &csr)
{
    const int block_rows = static_cast<int>(ceilDiv(csr.rows(), kBlockSize));
    const int block_cols = static_cast<int>(ceilDiv(csr.cols(), kBlockSize));
    BbcArrays out;
    out.rowPtr.assign(block_rows + 1, 0);
    std::vector<BlockPattern> pattern(block_cols);
    std::vector<std::array<double, kBlockSize * kBlockSize>> dense(
        block_cols);
    std::vector<int> touched;
    for (int br = 0; br < block_rows; ++br) {
        touched.clear();
        const int r_end = std::min((br + 1) * kBlockSize, csr.rows());
        for (int r = br * kBlockSize; r < r_end; ++r) {
            for (std::int64_t i = csr.rowPtr()[r];
                 i < csr.rowPtr()[r + 1]; ++i) {
                const int c = csr.colIdx()[i];
                const int bc = c / kBlockSize;
                if (pattern[bc].empty())
                    touched.push_back(bc);
                pattern[bc].set(r % kBlockSize, c % kBlockSize);
                dense[bc][r % kBlockSize * kBlockSize + c % kBlockSize] =
                    csr.vals()[i];
            }
        }
        std::sort(touched.begin(), touched.end());
        out.rowPtr[br + 1] = out.rowPtr[br] +
            static_cast<std::int64_t>(touched.size());
        for (const int bc : touched) {
            const BlockPattern &pat = pattern[bc];
            out.colIdx.push_back(bc);
            out.lv1.push_back(pat.tileBitmap());
            out.tileBase.push_back(
                static_cast<std::int64_t>(out.lv2.size()));
            out.valPtrLv1.push_back(
                static_cast<std::int64_t>(out.vals.size()));
            int block_offset = 0;
            forEachSetBit(pat.tileBitmap(), [&](int tile) {
                const int ti = tile / kTilesPerEdge;
                const int tj = tile % kTilesPerEdge;
                const std::uint16_t lv2 = pat.tilePattern(ti, tj);
                out.lv2.push_back(lv2);
                out.valPtrLv2.push_back(
                    static_cast<std::uint8_t>(block_offset));
                forEachSetBit(lv2, [&](int elem) {
                    const int lr = ti * kTileSize + elem / kTileSize;
                    const int lc = tj * kTileSize + elem % kTileSize;
                    out.vals.push_back(dense[bc][lr * kBlockSize + lc]);
                });
                block_offset += popcount16(lv2);
            });
            pattern[bc] = BlockPattern();
        }
    }
    return out;
}

/** fromCsr(@p m) equals the reference conversion, array by array. */
void
expectMatchesReference(const CsrMatrix &m)
{
    const BbcMatrix got = BbcMatrix::fromCsr(m);
    const BbcArrays want = referenceFromCsr(m);
    std::vector<std::int64_t> tile_base;
    for (std::int64_t blk = 0; blk < got.numBlocks(); ++blk)
        tile_base.push_back(got.tileBase(blk));
    EXPECT_EQ(got.rowPtr(), want.rowPtr);
    EXPECT_EQ(got.colIdx(), want.colIdx);
    EXPECT_EQ(got.lv1(), want.lv1);
    EXPECT_EQ(tile_base, want.tileBase);
    EXPECT_EQ(got.lv2(), want.lv2);
    EXPECT_EQ(got.valPtrLv1(), want.valPtrLv1);
    EXPECT_EQ(got.valPtrLv2(), want.valPtrLv2);
    EXPECT_EQ(got.vals(), want.vals);
}

TEST(BbcMatrix, FromCsrMatchesScratchReference)
{
    std::vector<NamedMatrix> inputs;
    inputs.push_back({"empty", CsrMatrix(40, 40)});
    // Block row 0 and rows 32-40 hold nothing.
    CooMatrix sparse_rows(41, 37);
    for (const int r : {16, 20, 31}) {
        for (const int c : {0, 5, 17, 36})
            sparse_rows.add(r, c, r + c * 0.25);
    }
    inputs.push_back({"empty rows", cooToCsr(std::move(sparse_rows))});
    for (const auto &[r, c] : {std::pair{17, 31}, {15, 16},
                               {33, 7}, {100, 3}}) {
        inputs.push_back({std::to_string(r) + "x" + std::to_string(c),
                          genRandomUniform(r, c, 0.2, 38 + r)});
    }
    CooMatrix full(kBlockSize, kBlockSize);
    for (int r = 0; r < kBlockSize; ++r) {
        for (int c = 0; c < kBlockSize; ++c)
            full.add(r, c, 1.0 + r * kBlockSize + c);
    }
    inputs.push_back({"full block", cooToCsr(std::move(full))});
    inputs.push_back(
        {"70% pruned", genPrunedWeights(100, 200, 0.7, 41)});
    for (NamedMatrix &nm : representativeMatrices())
        inputs.push_back(std::move(nm));

    for (const NamedMatrix &nm : inputs) {
        SCOPED_TRACE(nm.name);
        expectMatchesReference(nm.matrix);
    }
}

} // namespace
} // namespace unistc
