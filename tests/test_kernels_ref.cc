/**
 * @file
 * Reference-kernel tests: the CSR kernels are validated against naive
 * dense computation so they can serve as the gold standard everywhere
 * else.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "corpus/generators.hh"
#include "kernels/reference.hh"
#include "sparse/convert.hh"
#include "sparse/dense.hh"

namespace unistc
{
namespace
{

DenseMatrix
csrToDense(const CsrMatrix &csr)
{
    DenseMatrix out(csr.rows(), csr.cols());
    for (int r = 0; r < csr.rows(); ++r) {
        for (std::int64_t i = csr.rowPtr()[r]; i < csr.rowPtr()[r + 1];
             ++i) {
            out.at(r, csr.colIdx()[i]) = csr.vals()[i];
        }
    }
    return out;
}

std::vector<double>
denseSpmv(const DenseMatrix &a, const std::vector<double> &x)
{
    std::vector<double> y(a.rows(), 0.0);
    for (int r = 0; r < a.rows(); ++r) {
        for (int c = 0; c < a.cols(); ++c)
            y[r] += a.at(r, c) * x[c];
    }
    return y;
}

DenseMatrix
denseMm(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.rows(), b.cols());
    for (int r = 0; r < a.rows(); ++r) {
        for (int k = 0; k < a.cols(); ++k) {
            for (int j = 0; j < b.cols(); ++j)
                c.at(r, j) += a.at(r, k) * b.at(k, j);
        }
    }
    return c;
}

class KernelsRef : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KernelsRef, SpmvMatchesDense)
{
    const CsrMatrix a = genRandomUniform(50, 40, 0.12, GetParam());
    Rng rng(GetParam() + 1);
    std::vector<double> x(a.cols());
    for (auto &v : x)
        v = rng.nextDouble(-2.0, 2.0);
    const auto y = spmvRef(a, x);
    const auto yd = denseSpmv(csrToDense(a), x);
    EXPECT_LT(maxAbsDiff(y, yd), 1e-12);
}

TEST_P(KernelsRef, SpmspvMatchesDenseMaskedSpmv)
{
    const CsrMatrix a = genRandomUniform(48, 48, 0.1, GetParam());
    Rng rng(GetParam() + 2);
    SparseVector x(a.cols());
    for (int i = 0; i < a.cols(); ++i) {
        if (rng.nextBool(0.5))
            x.push(i, rng.nextDouble(-1.0, 1.0));
    }
    const SparseVector y = spmspvRef(a, x);
    const auto yd = denseSpmv(csrToDense(a), x.toDense());
    EXPECT_LT(maxAbsDiff(y.toDense(), yd), 1e-12);
    // Structural hits only where a row touches the x support.
    for (std::size_t i = 1; i < y.idx().size(); ++i)
        EXPECT_LT(y.idx()[i - 1], y.idx()[i]);
}

TEST_P(KernelsRef, SpmmMatchesDense)
{
    const CsrMatrix a = genRandomUniform(40, 32, 0.15, GetParam());
    Rng rng(GetParam() + 3);
    DenseMatrix b(a.cols(), 12);
    for (auto &v : b.data())
        v = rng.nextDouble(-1.0, 1.0);
    const DenseMatrix c = spmmRef(a, b);
    EXPECT_TRUE(c.approxEquals(denseMm(csrToDense(a), b), 1e-10));
}

TEST_P(KernelsRef, SpgemmMatchesDense)
{
    const CsrMatrix a = genRandomUniform(36, 30, 0.12, GetParam());
    const CsrMatrix b = genRandomUniform(30, 42, 0.12,
                                         GetParam() + 4);
    const CsrMatrix c = spgemmRef(a, b);
    c.validate();
    const DenseMatrix cd = denseMm(csrToDense(a), csrToDense(b));
    // Compare element-wise (cd may have exact zeros c drops).
    for (int r = 0; r < cd.rows(); ++r) {
        for (int j = 0; j < cd.cols(); ++j)
            EXPECT_NEAR(c.at(r, j), cd.at(r, j), 1e-10);
    }
}

TEST_P(KernelsRef, SymbolicCoversNumeric)
{
    const CsrMatrix a = genRandomUniform(32, 32, 0.1, GetParam());
    const CsrMatrix num = spgemmRef(a, a);
    const CsrMatrix sym = spgemmSymbolic(a, a);
    // Symbolic structure equals the structural product exactly (the
    // numeric result could only lose entries to cancellation, which
    // random positive values never produce here).
    EXPECT_EQ(sym.rowPtr(), num.rowPtr());
    EXPECT_EQ(sym.colIdx(), num.colIdx());
}

TEST_P(KernelsRef, FlopsCountsIntermediateProducts)
{
    const CsrMatrix a = genRandomUniform(30, 30, 0.1, GetParam());
    std::int64_t expect = 0;
    // Row k of A^T holds column k of A.
    const CsrMatrix a_t = transposeCsr(a);
    for (int k = 0; k < a.cols(); ++k)
        expect += a_t.rowNnz(k) * a.rowNnz(k);
    EXPECT_EQ(spgemmFlops(a, a), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelsRef,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(KernelsRefEdge, EmptyMatrix)
{
    const CsrMatrix a(8, 8);
    const std::vector<double> x(8, 1.0);
    const auto y = spmvRef(a, x);
    EXPECT_EQ(norm2(y), 0.0);
    EXPECT_EQ(spgemmRef(a, a).nnz(), 0);
    EXPECT_EQ(spgemmFlops(a, a), 0);
}

TEST(KernelsRefEdge, IdentityTimesAnything)
{
    CooMatrix eye(16, 16);
    for (int i = 0; i < 16; ++i)
        eye.add(i, i, 1.0);
    const CsrMatrix id = cooToCsr(std::move(eye));
    const CsrMatrix a = genRandomUniform(16, 16, 0.2, 55);
    EXPECT_TRUE(spgemmRef(id, a).approxEquals(a, 1e-14));
    EXPECT_TRUE(spgemmRef(a, id).approxEquals(a, 1e-14));
}

} // namespace
} // namespace unistc
