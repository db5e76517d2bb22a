/**
 * @file
 * UWMMA instruction-set and lifecycle tests (§IV-F / §IV-G).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "corpus/dlmc.hh"
#include "corpus/generators.hh"
#include "engine/task_stream.hh"
#include "isa/uwmma.hh"
#include "runner/spmm_runner.hh"
#include "sparse/convert.hh"

namespace unistc
{
namespace
{

const MachineConfig kFp64 = MachineConfig::fp64();

/** The FP64 bundle of the MM (or, with @p is_mv, MV) task a x b. */
TaskBundle
bundleOf(const BlockPattern &a, const BlockPattern &b, bool is_mv)
{
    BlockTask task = BlockTask::mm(a, b);
    task.isMv = is_mv;
    return buildTaskBundle(task, kFp64);
}

TEST(Uwmma, BundleRespectsTableVBounds)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.2);
        const BlockPattern b = BlockPattern::random(rng, 0.2);

        const TaskBundle mm = bundleOf(a, b, false);
        EXPECT_EQ(mm.loadCycles, 3); // meta (1) + A values (2)
        EXPECT_GE(mm.taskGenCycles, 1);
        EXPECT_LE(mm.taskGenCycles, 8);
        EXPECT_GE(mm.numericCycles, 1);
        EXPECT_LE(mm.numericCycles, 64);
        ASSERT_EQ(mm.instrs.size(), 4u);
        EXPECT_EQ(mm.instrs[0].op, UwmmaOp::LoadMetaMm);
        EXPECT_EQ(mm.instrs[3].op, UwmmaOp::NumericMm);

        const TaskBundle mv = bundleOf(a, vectorAsBlock(0xFFFF), true);
        EXPECT_LE(mv.taskGenCycles, 4);
        EXPECT_LE(mv.numericCycles, 8);
        EXPECT_EQ(mv.instrs[0].op, UwmmaOp::LoadMetaMv);
    }
}

TEST(Uwmma, DenseMmBundleHitsUpperNumericBound)
{
    const TaskBundle b =
        bundleOf(BlockPattern::dense(), BlockPattern::dense(), false);
    EXPECT_EQ(b.numericCycles, 64);
    EXPECT_EQ(b.taskGenCycles, 8);
}

TEST(Lifecycle, AsyncNeverSlowerThanSerial)
{
    const CsrMatrix m = genBanded(160, 10, 0.5, 12);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const auto trace = traceSpgemm(bbc, bbc, kFp64);
    ASSERT_FALSE(trace.empty());

    const LifecycleStats async = simulateLifecycle(trace, true);
    const LifecycleStats serial = simulateLifecycle(trace, false);
    EXPECT_LE(async.totalCycles, serial.totalCycles);
    EXPECT_EQ(async.instructions, serial.instructions);
    EXPECT_EQ(async.numericCycles, serial.numericCycles);
    // Hiding works: the async stall total is strictly smaller here.
    EXPECT_LT(async.taskGenStalls, serial.taskGenStalls);
}

TEST(Lifecycle, TotalsAreConsistent)
{
    const CsrMatrix m = genRandomUniform(96, 96, 0.05, 13);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const auto trace = traceSpmv(bbc, kFp64);
    const LifecycleStats s = simulateLifecycle(trace, true);
    // Total covers at least loads + numeric work.
    EXPECT_GE(s.totalCycles, s.loadCycles + s.numericCycles);
    EXPECT_EQ(s.instructions, trace.size() * 4);
}

TEST(Lifecycle, EmptyStream)
{
    const LifecycleStats s = simulateLifecycle({}, true);
    EXPECT_EQ(s.totalCycles, 0u);
    EXPECT_EQ(s.instructions, 0u);
}

TEST(Trace, SpgemmSkipsNonMatchingPairs)
{
    // Block-diagonal A times itself: only diagonal pairs match.
    CooMatrix coo(64, 64);
    for (int blk = 0; blk < 4; ++blk) {
        for (int i = 0; i < 16; ++i)
            coo.add(blk * 16 + i, blk * 16 + i, 1.0);
    }
    const BbcMatrix bbc =
        BbcMatrix::fromCsr(cooToCsr(std::move(coo)));
    const auto trace = traceSpgemm(bbc, bbc, kFp64);
    EXPECT_EQ(trace.size(), 4u);
}

// traceSpmm builds its bundles per A block from the stored tile
// words, without the stream; it must still produce exactly the
// bundles of SpmmPlan's stream, including the partial-width last B
// block column when b_cols % 16 != 0 and A's partial edge blocks.
TEST(Trace, SpmmMatchesPlanStream)
{
    CooMatrix dense(48, 48);
    for (int r = 0; r < 48; ++r) {
        for (int c = 0; c < 48; ++c)
            dense.add(r, c, 1.0);
    }
    const std::vector<std::pair<const char *, CsrMatrix>> inputs = {
        {"empty", cooToCsr(CooMatrix(64, 64))},
        {"random", genRandomUniform(128, 128, 0.3, 7)},
        {"dense", cooToCsr(std::move(dense))},
        {"pruned70", genPrunedWeights(100, 200, 0.7, 5)},
    };
    for (const MachineConfig &cfg :
         {MachineConfig::fp32(), MachineConfig::fp64()}) {
        for (const auto &[name, csr] : inputs) {
            const BbcMatrix a = BbcMatrix::fromCsr(csr);
            for (const int b_cols : {1, 16, 20, 64, 70}) {
                SCOPED_TRACE(std::string(name) + " " +
                             toString(cfg.precision) +
                             " b_cols=" + std::to_string(b_cols));
                const auto want =
                    bundleStream(*SpmmPlan(a, b_cols).stream(), cfg);
                const auto got = traceSpmm(a, b_cols, cfg);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    SCOPED_TRACE("bundle " + std::to_string(i));
                    EXPECT_EQ(got[i].loadCycles, want[i].loadCycles);
                    EXPECT_EQ(got[i].taskGenCycles,
                              want[i].taskGenCycles);
                    EXPECT_EQ(got[i].numericCycles,
                              want[i].numericCycles);
                    ASSERT_EQ(got[i].instrs.size(),
                              want[i].instrs.size());
                    for (std::size_t k = 0; k < got[i].instrs.size();
                         ++k) {
                        EXPECT_EQ(got[i].instrs[k].op,
                                  want[i].instrs[k].op);
                        EXPECT_EQ(got[i].instrs[k].cycles,
                                  want[i].instrs[k].cycles);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace unistc
