/**
 * @file
 * Corpus tests: every generator must honour its structural contract
 * and determinism, the representative set must match Table VII's
 * qualitative shape, and the DLMC generator must hit its sparsity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bbc/bbc_matrix.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "corpus/dlmc.hh"
#include "corpus/generators.hh"
#include "corpus/representative.hh"
#include "corpus/suite.hh"
#include "kernels/reference.hh"
#include "sparse/convert.hh"

namespace unistc
{
namespace
{

TEST(Generators, RandomUniformDensity)
{
    const CsrMatrix m = genRandomUniform(200, 200, 0.05, 401);
    m.validate();
    EXPECT_NEAR(m.density(), 0.05, 0.01);
    // Deterministic in the seed.
    EXPECT_TRUE(m.approxEquals(genRandomUniform(200, 200, 0.05, 401),
                               0.0));
    EXPECT_FALSE(m.approxEquals(genRandomUniform(200, 200, 0.05, 402),
                                0.0));
}

TEST(Generators, RandomUniformSparseBranch)
{
    const CsrMatrix m = genRandomUniform(400, 400, 0.005, 403);
    EXPECT_NEAR(m.density(), 0.005, 0.002);
}

TEST(Generators, BandedStaysInBand)
{
    const int hb = 9;
    const CsrMatrix m = genBanded(120, hb, 0.4, 404);
    for (int r = 0; r < m.rows(); ++r) {
        EXPECT_GT(m.at(r, r), 0.0); // diagonal always present
        for (std::int64_t i = m.rowPtr()[r]; i < m.rowPtr()[r + 1];
             ++i) {
            EXPECT_LE(std::abs(m.colIdx()[i] - r), hb);
        }
    }
}

TEST(Generators, Stencil5Point)
{
    const CsrMatrix m = genStencil2d(8, false);
    EXPECT_EQ(m.rows(), 64);
    // Interior point: 5 entries; corner: 3.
    EXPECT_EQ(m.rowNnz(8 * 3 + 3), 5);
    EXPECT_EQ(m.rowNnz(0), 3);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 4.0);
    // Row sums are >= 0 (diagonally dominant M-matrix).
    for (int r = 0; r < m.rows(); ++r) {
        double sum = 0.0;
        for (std::int64_t i = m.rowPtr()[r]; i < m.rowPtr()[r + 1];
             ++i) {
            sum += m.vals()[i];
        }
        EXPECT_GE(sum, -1e-12);
    }
}

TEST(Generators, Stencil9Point)
{
    const CsrMatrix m = genStencil2d(6, true);
    EXPECT_EQ(m.rowNnz(6 * 2 + 2), 9);
    EXPECT_DOUBLE_EQ(m.at(14, 14), 8.0);
}

TEST(Generators, PowerLawDegreeSkew)
{
    const CsrMatrix m = genPowerLaw(300, 8.0, 2.2, 405);
    m.validate();
    // The top row must have far more nonzeros than the median row.
    std::vector<double> degs;
    for (int r = 0; r < m.rows(); ++r)
        degs.push_back(static_cast<double>(m.rowNnz(r)));
    EXPECT_GT(quantile(degs, 1.0), 4.0 * quantile(degs, 0.5));
    EXPECT_NEAR(static_cast<double>(m.nnz()) / m.rows(), 8.0, 4.0);
}

TEST(Generators, LongRowsContrast)
{
    const CsrMatrix m = genLongRows(150, 5, 0.6, 0.01, 406);
    std::vector<double> degs;
    for (int r = 0; r < m.rows(); ++r)
        degs.push_back(static_cast<double>(m.rowNnz(r)));
    // The 5 long rows dominate the max.
    EXPECT_GT(quantile(degs, 1.0), 60.0);
    EXPECT_LT(quantile(degs, 0.5), 10.0);
}

TEST(Generators, DiagonalHeavy)
{
    const CsrMatrix m = genDiagonalHeavy(100, 5, 407);
    m.validate();
    for (int r = 0; r < m.rows(); ++r)
        EXPECT_GT(m.at(r, r), 0.0);
}

TEST(Generators, RandomizeValuesKeepsStructure)
{
    CsrMatrix m = genBanded(50, 5, 0.5, 408);
    const auto cols = m.colIdx();
    randomizeValues(m, 409);
    EXPECT_EQ(m.colIdx(), cols);
    for (double v : m.vals()) {
        EXPECT_GE(v, 0.1);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Representative, EightMatricesWithRisingBlockDensity)
{
    const auto reps = representativeMatrices();
    ASSERT_EQ(reps.size(), 8u);
    EXPECT_EQ(reps.front().name, "consph");
    EXPECT_EQ(reps.back().name, "gupta3");

    // Table VII's #inter-prod/blk (intermediate products per T1
    // task of C = A^2) rises sharply from consph to gupta3; require
    // the analogue set to preserve the extremes. The task count is
    // the number of (A-block, B-block) pairs Algorithm 2 visits.
    auto inter_per_block = [](const CsrMatrix &a) {
        const BbcMatrix bbc = BbcMatrix::fromCsr(a);
        std::vector<std::int64_t> col_blocks(bbc.blockCols(), 0);
        for (int bc : bbc.colIdx())
            ++col_blocks[bc];
        std::int64_t pairs = 0;
        for (int bk = 0; bk < bbc.blockRows(); ++bk) {
            pairs += col_blocks[bk] *
                (bbc.rowPtr()[bk + 1] - bbc.rowPtr()[bk]);
        }
        return static_cast<double>(spgemmFlops(a, a)) /
            static_cast<double>(std::max<std::int64_t>(pairs, 1));
    };
    const double first = inter_per_block(reps.front().matrix);
    const double last = inter_per_block(reps.back().matrix);
    EXPECT_GT(last, first);

    for (const auto &nm : reps) {
        nm.matrix.validate();
        EXPECT_EQ(nm.matrix.rows(), nm.matrix.cols());
        EXPECT_GT(nm.matrix.nnz(), 0);
    }
}

TEST(Representative, LookupByName)
{
    const CsrMatrix cant = representativeMatrix("cant");
    EXPECT_GT(cant.nnz(), 0);
}

TEST(Suite, CoversFamiliesAndIsDeterministic)
{
    const auto suite = syntheticSuite(1, 2026);
    EXPECT_GE(suite.size(), 15u);
    for (const auto &nm : suite) {
        nm.matrix.validate();
        EXPECT_EQ(nm.matrix.rows(), nm.matrix.cols());
        EXPECT_GT(nm.matrix.nnz(), 0);
    }
    const auto again = syntheticSuite(1, 2026);
    ASSERT_EQ(suite.size(), again.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].name, again[i].name);
        EXPECT_TRUE(suite[i].matrix.approxEquals(again[i].matrix,
                                                 0.0));
    }
}

TEST(Dlmc, SparsityTargets)
{
    for (double sparsity : {0.7, 0.98}) {
        const CsrMatrix w = genPrunedWeights(256, 512, sparsity, 410);
        w.validate();
        EXPECT_NEAR(1.0 - w.density(), sparsity, 0.02);
        // No empty neuron rows.
        for (int r = 0; r < w.rows(); ++r)
            EXPECT_GE(w.rowNnz(r), 1);
    }
}

TEST(Dlmc, MagnitudesBoundedAwayFromZero)
{
    const CsrMatrix w = genPrunedWeights(64, 64, 0.9, 411);
    for (double v : w.vals())
        EXPECT_GE(std::abs(v), 0.05);
}

// The same draws as genPrunedWeights, assembled the general way: into
// a COO matrix, then sorted, merged and zero-dropped by cooToCsr.
CsrMatrix
referencePrunedWeights(int rows, int cols, double sparsity,
                       std::uint64_t seed)
{
    Rng rng(seed);
    const double expect = (1.0 - sparsity) * cols;
    CooMatrix coo(rows, cols);
    for (int r = 0; r < rows; ++r) {
        int k = static_cast<int>(std::floor(expect));
        if (rng.nextBool(expect - k))
            ++k;
        k = std::clamp(k, 1, cols);
        for (int c : rng.sampleDistinct(cols, k)) {
            const double mag = 0.05 + std::fabs(rng.nextGaussian());
            coo.add(r, c, rng.nextBool(0.5) ? mag : -mag);
        }
    }
    return cooToCsr(std::move(coo));
}

TEST(Dlmc, DirectAssemblyMatchesCooRoundTrip)
{
    // cols = 1 and 0% sparsity make every row full; 99.9% of 147
    // clamps k to 1; 98% of 4608 keeps ~92 picks against 72 bitmap
    // words, 99.9% of 4608 takes the linear sampler path.
    for (int cols : {1, 3, 64, 65, 147, 4608}) {
        for (double sparsity : {0.0, 0.7, 0.98, 0.999}) {
            const CsrMatrix got = genPrunedWeights(24, cols, sparsity, 412);
            const CsrMatrix want =
                referencePrunedWeights(24, cols, sparsity, 412);
            EXPECT_EQ(got.rows(), want.rows());
            EXPECT_EQ(got.cols(), want.cols());
            EXPECT_EQ(got.rowPtr(), want.rowPtr())
                << "cols=" << cols << " sparsity=" << sparsity;
            EXPECT_EQ(got.colIdx(), want.colIdx())
                << "cols=" << cols << " sparsity=" << sparsity;
            EXPECT_EQ(got.vals(), want.vals())
                << "cols=" << cols << " sparsity=" << sparsity;
        }
    }
}

} // namespace
} // namespace unistc
