/**
 * @file
 * Cross-module integration invariants: relations that must hold when
 * formats, runners and models compose end-to-end.
 */

#include <gtest/gtest.h>

#include "bbc/bbc_matrix.hh"
#include "common/rng.hh"
#include "corpus/generators.hh"
#include "kernels/reference.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmm_runner.hh"
#include "runner/spmspv_runner.hh"
#include "runner/spmv_runner.hh"
#include "sparse/convert.hh"
#include "stc/registry.hh"

namespace unistc
{
namespace
{

const MachineConfig kFp64 = MachineConfig::fp64();

class IntegrationModels
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IntegrationModels, SpmspvWithFullXMatchesSpmv)
{
    const CsrMatrix a = genRandomUniform(80, 80, 0.08, 771);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    SparseVector full(a.cols());
    for (int i = 0; i < a.cols(); ++i)
        full.push(i, 1.0);

    const auto model = makeStcModel(GetParam(), kFp64);
    const RunResult spmv = runSpmv(*model, bbc);
    const RunResult spmspv = runSpmspv(*model, bbc, full);
    EXPECT_EQ(spmv.cycles, spmspv.cycles);
    EXPECT_EQ(spmv.products, spmspv.products);
}

TEST_P(IntegrationModels, SpmmCyclesScaleWithWidth)
{
    const CsrMatrix a = genBanded(96, 8, 0.5, 772);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    const auto model = makeStcModel(GetParam(), kFp64);
    const RunResult w16 = runSpmm(*model, bbc, 16);
    const RunResult w64 = runSpmm(*model, bbc, 64);
    // Four times the B width means exactly four times the block
    // tasks and products.
    EXPECT_EQ(w64.products, 4 * w16.products);
    EXPECT_EQ(w64.cycles, 4 * w16.cycles);
}

TEST_P(IntegrationModels, SpgemmAgainstIdentityMatchesSpmmWidth)
{
    // C = A * I has the same intermediate products as A itself has
    // nonzeros, and the simulated product count must agree.
    const CsrMatrix a = genRandomUniform(64, 64, 0.1, 773);
    CooMatrix eye(64, 64);
    for (int i = 0; i < 64; ++i)
        eye.add(i, i, 1.0);
    const CsrMatrix id = cooToCsr(std::move(eye));

    const BbcMatrix ab = BbcMatrix::fromCsr(a);
    const BbcMatrix ib = BbcMatrix::fromCsr(id);
    const auto model = makeStcModel(GetParam(), kFp64);
    const RunResult r = runSpgemm(*model, ab, ib);
    EXPECT_EQ(r.products, static_cast<std::uint64_t>(a.nnz()));
}

TEST_P(IntegrationModels, SparserXNeverCostsMore)
{
    const CsrMatrix a = genBanded(128, 12, 0.5, 774);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    Rng rng(775);
    SparseVector dense_x(a.cols());
    SparseVector sparse_x(a.cols());
    for (int i = 0; i < a.cols(); ++i) {
        const bool in_dense = rng.nextBool(0.6);
        if (in_dense) {
            dense_x.push(i, 1.0);
            // The sparse support is a subset of the dense support.
            if (rng.nextBool(0.3))
                sparse_x.push(i, 1.0);
        }
    }
    const auto model = makeStcModel(GetParam(), kFp64);
    const RunResult d = runSpmspv(*model, bbc, dense_x);
    const RunResult s = runSpmspv(*model, bbc, sparse_x);
    EXPECT_LE(s.products, d.products);
    EXPECT_LE(s.cycles, d.cycles);
}

TEST_P(IntegrationModels, EnergyComponentsNonNegative)
{
    const CsrMatrix a = genPowerLaw(96, 6.0, 2.3, 776);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    const auto model = makeStcModel(GetParam(), kFp64);
    const RunResult r = runSpgemm(*model, bbc, bbc);
    EXPECT_GE(r.energy.fetchA, 0.0);
    EXPECT_GE(r.energy.fetchB, 0.0);
    EXPECT_GE(r.energy.writeC, 0.0);
    EXPECT_GE(r.energy.schedule, 0.0);
    EXPECT_GE(r.energy.compute, 0.0);
    if (r.products > 0) {
        EXPECT_GT(r.energy.total(), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, IntegrationModels,
                         ::testing::ValuesIn(allModelNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &ch : n) {
                                 if (ch == '-')
                                     ch = '_';
                             }
                             return n;
                         });

TEST(Integration, Fp32DoublesThroughputOnDenseBlocks)
{
    const CsrMatrix a = genRandomUniform(64, 64, 1.0, 777);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    const auto fp64 = makeStcModel("Uni-STC", MachineConfig::fp64());
    const auto fp32 = makeStcModel("Uni-STC", MachineConfig::fp32());
    const RunResult r64 = runSpgemm(*fp64, bbc, bbc);
    const RunResult r32 = runSpgemm(*fp32, bbc, bbc);
    EXPECT_EQ(r64.products, r32.products);
    EXPECT_EQ(r64.cycles, 2 * r32.cycles);
}

TEST(Integration, SimulationDoesNotPerturbNumerics)
{
    // Simulating on every architecture must leave the matrix usable
    // for exact numeric verification afterwards.
    const CsrMatrix a = genBanded(80, 6, 0.6, 778);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    for (const auto &name : allModelNames())
        (void)runSpmv(*makeStcModel(name, kFp64), bbc);
    EXPECT_TRUE(bbc.toCsr().approxEquals(a, 0.0));
}

} // namespace
} // namespace unistc
