/**
 * @file
 * End-to-end DNN latency projection tests.
 */

#include <gtest/gtest.h>

#include "apps/dnn/dnn_driver.hh"
#include "bbc/bbc_matrix.hh"
#include "corpus/dlmc.hh"
#include "isa/uwmma.hh"
#include "sm/sm_model.hh"

namespace unistc
{
namespace
{

const MachineConfig kFp32 = MachineConfig::fp32();

std::vector<DnnLayerRep>
tinyStack()
{
    return {
        {{"l0", 64, 128, 64}, 2},
        {{"l1", 128, 64, 64}, 1},
    };
}

TEST(DnnE2e, LatencyIsPositiveAndConsistent)
{
    const InferenceLatency lat = estimateInferenceLatency(
        tinyStack(), 0.7, kFp32, 2, 4, 8, 1);
    EXPECT_GT(lat.makespanCycles, 0u);
    EXPECT_GT(lat.latencyUs, 0.0);
    EXPECT_GT(lat.bundles, 0u);
    EXPECT_GT(lat.unitUtilisation, 0.0);
    EXPECT_LE(lat.unitUtilisation, 1.0);
}

TEST(DnnE2e, SparserWeightsAreFaster)
{
    const InferenceLatency dense = estimateInferenceLatency(
        tinyStack(), 0.0, kFp32, 2, 4, 8, 2);
    const InferenceLatency sparse = estimateInferenceLatency(
        tinyStack(), 0.9, kFp32, 2, 4, 8, 2);
    EXPECT_LT(sparse.makespanCycles, dense.makespanCycles);
}

TEST(DnnE2e, MoreSmsAreFaster)
{
    const InferenceLatency one = estimateInferenceLatency(
        tinyStack(), 0.5, kFp32, 1, 4, 8, 3);
    const InferenceLatency four = estimateInferenceLatency(
        tinyStack(), 0.5, kFp32, 4, 4, 8, 3);
    EXPECT_LE(four.makespanCycles, one.makespanCycles);
}

TEST(DnnE2e, DeterministicInSeed)
{
    const InferenceLatency a = estimateInferenceLatency(
        tinyStack(), 0.7, kFp32, 2, 4, 8, 4);
    const InferenceLatency b = estimateInferenceLatency(
        tinyStack(), 0.7, kFp32, 2, 4, 8, 4);
    EXPECT_EQ(a.makespanCycles, b.makespanCycles);
    EXPECT_EQ(a.bundles, b.bundles);
}

/**
 * estimateInferenceLatency() with every layer's weights drawn by
 * genPrunedWeights(), the path it took at every sparsity before dense
 * weights were built directly.
 */
InferenceLatency
generatedLatency(const std::vector<DnnLayerRep> &stack,
                 double weight_sparsity, const MachineConfig &cfg,
                 int num_sms, int stc_per_sm, int warps,
                 std::uint64_t seed)
{
    InferenceLatency out;
    std::uint64_t total_busy = 0;
    for (const auto &rep : stack) {
        const BbcMatrix bbc = BbcMatrix::fromCsr(genPrunedWeights(
            rep.layer.m, rep.layer.k, weight_sparsity, seed++));
        const auto one_tile = traceSpmm(bbc, rep.layer.n, cfg);
        std::vector<TaskBundle> bundles;
        for (int t = 0; t < rep.repeats; ++t) {
            bundles.insert(bundles.end(), one_tile.begin(),
                           one_tile.end());
        }
        const SmStats s = simulateDevice(
            bundles, SmConfig{stc_per_sm, warps}, num_sms);
        out.makespanCycles += s.makespanCycles;
        out.bundles += s.tasksIssued;
        total_busy += s.busyUnitCycles;
    }
    out.latencyUs =
        static_cast<double>(out.makespanCycles) / cfg.freqGhz / 1e3;
    out.unitUtilisation = static_cast<double>(total_busy) /
        (static_cast<double>(out.makespanCycles) * num_sms * stc_per_sm);
    return out;
}

TEST(DnnE2e, DenseWeightsMatchGeneratedWeights)
{
    // Shapes that leave partial blocks on both sides of the weights.
    const std::vector<DnnLayerRep> stack = {
        {{"l0", 40, 72, 24}, 2},
        {{"l1", 72, 40, 16}, 1},
    };
    for (double sparsity : {0.0, 0.7}) {
        SCOPED_TRACE(testing::Message() << "sparsity " << sparsity);
        const InferenceLatency want =
            generatedLatency(stack, sparsity, kFp32, 2, 4, 8, 5);
        const InferenceLatency got =
            estimateInferenceLatency(stack, sparsity, kFp32, 2, 4, 8, 5);
        EXPECT_EQ(got.makespanCycles, want.makespanCycles);
        EXPECT_EQ(got.bundles, want.bundles);
        EXPECT_EQ(got.latencyUs, want.latencyUs);
        EXPECT_EQ(got.unitUtilisation, want.unitUtilisation);
    }
}

} // namespace
} // namespace unistc
