/**
 * @file
 * Tests for the sparse formats and conversions: construction,
 * validation, round-trips and storage accounting.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/rng.hh"
#include "corpus/generators.hh"
#include "sparse/convert.hh"
#include "sparse/sparse_vector.hh"

namespace unistc
{
namespace
{

CsrMatrix
sampleCsr()
{
    // The Fig. 1 example matrix:
    //   a . b .
    //   . c . .
    //   . . . d
    //   e . . f
    CooMatrix coo(4, 4);
    coo.add(0, 0, 1.0); // a
    coo.add(0, 2, 2.0); // b
    coo.add(1, 1, 3.0); // c
    coo.add(2, 3, 4.0); // d
    coo.add(3, 0, 5.0); // e
    coo.add(3, 3, 6.0); // f
    return cooToCsr(std::move(coo));
}

TEST(Coo, NormalizeSortsAndMergesDuplicates)
{
    CooMatrix coo(3, 3);
    coo.add(2, 1, 1.0);
    coo.add(0, 0, 2.0);
    coo.add(2, 1, 3.0); // duplicate, sums to 4
    coo.add(1, 2, -1.0);
    coo.add(1, 2, 1.0); // cancels to zero, dropped
    coo.normalize();
    ASSERT_EQ(coo.nnz(), 2);
    EXPECT_EQ(coo.entries()[0].row, 0);
    EXPECT_EQ(coo.entries()[1].row, 2);
    EXPECT_DOUBLE_EQ(coo.entries()[1].val, 4.0);
}

TEST(Csr, MatchesFig1Example)
{
    const CsrMatrix m = sampleCsr();
    EXPECT_EQ(m.rows(), 4);
    EXPECT_EQ(m.nnz(), 6);
    // RowPtr: 0 2 3 4 6 (the paper's Fig. 1).
    EXPECT_EQ(m.rowPtr(),
              (std::vector<std::int64_t>{0, 2, 3, 4, 6}));
    EXPECT_EQ(m.colIdx(), (std::vector<int>{0, 2, 1, 3, 0, 3}));
    EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
    EXPECT_EQ(m.rowNnz(3), 2);
}

TEST(Csr, DensityAndStorage)
{
    const CsrMatrix m = sampleCsr();
    EXPECT_DOUBLE_EQ(m.density(), 6.0 / 16.0);
    // 5 row pointers * 8 + 6 cols * 4 + 6 vals * 8.
    EXPECT_EQ(m.storageBytes(), 5u * 8 + 6u * 4 + 6u * 8);
}

TEST(Csr, ApproxEquals)
{
    const CsrMatrix a = sampleCsr();
    CsrMatrix b = sampleCsr();
    EXPECT_TRUE(a.approxEquals(b));
    b.vals()[0] += 1e-12;
    EXPECT_TRUE(a.approxEquals(b, 1e-9));
    b.vals()[0] += 1.0;
    EXPECT_FALSE(a.approxEquals(b, 1e-9));
}

TEST(Convert, TransposeTwiceIsIdentity)
{
    // Non-square, with every fourth row and fifth column empty (the
    // last row and column among them), plus the empty matrix.
    const CsrMatrix full = genRandomUniform(40, 70, 0.1, 7);
    CooMatrix coo(40, 70);
    for (int r = 0; r < full.rows(); ++r) {
        for (std::int64_t i = full.rowPtr()[r]; i < full.rowPtr()[r + 1];
             ++i) {
            const int c = full.colIdx()[i];
            if (r % 4 != 3 && c % 5 != 4)
                coo.add(r, c, full.vals()[i]);
        }
    }
    const CsrMatrix holes = cooToCsr(std::move(coo));
    for (const CsrMatrix &m : {holes, CsrMatrix(10, 10)}) {
        const CsrMatrix t = transposeCsr(m);
        EXPECT_EQ(t.rows(), m.cols());
        EXPECT_EQ(t.cols(), m.rows());
        EXPECT_EQ(t.nnz(), m.nnz());
        t.validate();
        EXPECT_TRUE(transposeCsr(t).approxEquals(m, 0.0));
        for (int r = 0; r < m.rows(); ++r) {
            for (int c = 0; c < m.cols(); ++c)
                EXPECT_EQ(t.at(c, r), m.at(r, c)) << r << "," << c;
        }
    }
}

TEST(Convert, BsrRoundTripAndAccounting)
{
    const CsrMatrix m = genRandomUniform(50, 50, 0.07, 8);
    for (int bs : {4, 16}) {
        const BsrMatrix bsr = csrToBsr(m, bs);
        bsr.validate();
        // One stored block per block holding a nonzero, no more.
        std::set<std::pair<int, int>> blocks;
        for (int r = 0; r < m.rows(); ++r) {
            for (std::int64_t i = m.rowPtr()[r]; i < m.rowPtr()[r + 1];
                 ++i)
                blocks.emplace(r / bs, m.colIdx()[i] / bs);
        }
        EXPECT_EQ(bsr.numBlocks(),
                  static_cast<std::int64_t>(blocks.size()));
        // BSR stores full blocks: storage never smaller than values.
        EXPECT_GE(bsr.storageBytes(),
                  static_cast<std::uint64_t>(m.nnz()) * 8);
        // Element lookup agrees with CSR everywhere.
        for (int r = 0; r < m.rows(); ++r) {
            for (int c = 0; c < m.cols(); ++c)
                EXPECT_EQ(bsr.at(r, c), m.at(r, c)) << r << "," << c;
        }
    }
}

TEST(SparseVector, DenseRoundTrip)
{
    SparseVector v(10);
    v.push(1, 2.0);
    v.push(7, -3.0);
    const auto d = v.toDense();
    EXPECT_DOUBLE_EQ(d[1], 2.0);
    EXPECT_DOUBLE_EQ(d[7], -3.0);
    EXPECT_DOUBLE_EQ(d[0], 0.0);
}

TEST(SparseVector, ConstructorSortsUnsortedInput)
{
    const SparseVector v(8, {5, 2, 7}, {1.0, 2.0, 3.0});
    EXPECT_EQ(v.idx(), (std::vector<int>{2, 5, 7}));
    EXPECT_EQ(v.vals(), (std::vector<double>{2.0, 1.0, 3.0}));
}

TEST(EmptyShapes, AllFormatsHandleEmpty)
{
    const CsrMatrix empty(10, 10);
    EXPECT_EQ(empty.nnz(), 0);
    const BsrMatrix bsr = csrToBsr(empty, 4);
    EXPECT_EQ(bsr.numBlocks(), 0);
    EXPECT_EQ(bsr.at(9, 9), 0.0);
}

} // namespace
} // namespace unistc
