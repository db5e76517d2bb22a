/**
 * @file
 * Behavioural tests of the baseline STC models on hand-constructed
 * block patterns where the expected cycle counts follow directly from
 * each architecture's Table VI task geometry.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/rng.hh"
#include "stc/ds_stc.hh"
#include "stc/nv_dtc.hh"
#include "stc/registry.hh"
#include "stc/rm_stc.hh"
#include "stc/row_dataflow.hh"
#include "stc/trapezoid.hh"

#include "run_result_eq.hh"

namespace unistc
{
namespace
{

const MachineConfig kFp64 = MachineConfig::fp64();

RunResult
run(const StcModel &m, const BlockTask &t)
{
    RunResult res;
    m.runBlock(t, res);
    return res;
}

TEST(NvDtc, DenseMmTakes64CyclesAtFullUtilisation)
{
    NvDtc model(kFp64);
    const BlockTask t = BlockTask::mm(BlockPattern::dense(),
                                      BlockPattern::dense());
    const RunResult r = run(model, t);
    EXPECT_EQ(r.cycles, 64u); // 4096 products / 64 MACs
    EXPECT_EQ(r.products, 4096u);
    EXPECT_DOUBLE_EQ(r.utilisation(), 1.0);
    // Dense accumulator writes the whole block once.
    EXPECT_EQ(r.traffic.writesC, 256u);
}

TEST(NvDtc, CyclesAreDataIndependent)
{
    NvDtc model(kFp64);
    Rng rng(1);
    const BlockPattern sparse_a = BlockPattern::random(rng, 0.05);
    const BlockPattern sparse_b = BlockPattern::random(rng, 0.05);
    const RunResult r =
        run(model, BlockTask::mm(sparse_a, sparse_b));
    EXPECT_EQ(r.cycles, 64u); // no sparsity adaptation
    EXPECT_LT(r.utilisation(), 0.25);
}

TEST(NvDtc, MvTask)
{
    NvDtc model(kFp64);
    const RunResult r = run(model,
                            BlockTask::mv(BlockPattern::dense(),
                                          0xFFFF));
    // 4 M-tiles x 4 K-tiles x 1 N-tile = 16 cycles; 256 products.
    EXPECT_EQ(r.cycles, 16u);
    EXPECT_EQ(r.products, 256u);
    EXPECT_DOUBLE_EQ(r.utilisation(), 0.25); // N=1 of 4 lanes
}

TEST(DsStc, SingleOuterProductSlice)
{
    DsStc model(kFp64);
    // A has column 0 fully populated; B has row 0 fully populated.
    BlockPattern a, b;
    for (int i = 0; i < kBlockSize; ++i) {
        a.set(i, 0);
        b.set(0, i);
    }
    const RunResult r = run(model, BlockTask::mm(a, b));
    // na = nb = 16: ceil(16/8)^2 = 4 cycles, each 8x8 = 64 products.
    EXPECT_EQ(r.cycles, 4u);
    EXPECT_EQ(r.products, 256u);
    EXPECT_DOUBLE_EQ(r.utilisation(), 1.0);
    // Outer product writes every product to C.
    EXPECT_EQ(r.traffic.writesC, 256u);
}

TEST(DsStc, ShortGatherWastesLanes)
{
    DsStc model(kFp64);
    BlockPattern a, b;
    a.set(0, 0);
    a.set(1, 0);
    a.set(2, 0); // na = 3
    b.set(0, 0);
    b.set(0, 1); // nb = 2
    const RunResult r = run(model, BlockTask::mm(a, b));
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_EQ(r.products, 6u);
    EXPECT_EQ(r.traffic.wastedA, 5u); // 8-lane gather, 3 used
    EXPECT_EQ(r.traffic.wastedB, 6u);
}

TEST(DsStc, DualSideSkipsEmptySlices)
{
    DsStc model(kFp64);
    BlockPattern a, b;
    a.set(0, 3); // column 3 of A only
    b.set(7, 0); // row 7 of B only: no k matches
    const RunResult r = run(model, BlockTask::mm(a, b));
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.products, 0u);
}

TEST(DsStc, MvUtilisationCappedAtOneEighth)
{
    DsStc model(kFp64);
    const RunResult r = run(model,
                            BlockTask::mv(BlockPattern::dense(),
                                          0xFFFF));
    // N lanes carry one x element: utilisation <= 8/64 (§VI-C-2).
    EXPECT_LE(r.utilisation(), 0.125 + 1e-12);
    EXPECT_EQ(r.products, 256u);
}

TEST(RmStc, DenseRowGroups)
{
    RmStc model(kFp64);
    const BlockTask t = BlockTask::mm(BlockPattern::dense(),
                                      BlockPattern::dense());
    const RunResult r = run(model, t);
    EXPECT_EQ(r.products, 4096u);
    // Per row: 8 scalar pairs x ceil(16/4) = 32 sub-steps; two
    // 8-row groups run in lock-step: 64 cycles at full utilisation.
    EXPECT_EQ(r.cycles, 64u);
    EXPECT_DOUBLE_EQ(r.utilisation(), 1.0);
}

TEST(RmStc, MvUtilisationCappedAtOneQuarter)
{
    RmStc model(kFp64);
    const RunResult r = run(model,
                            BlockTask::mv(BlockPattern::dense(),
                                          0xFFFF));
    EXPECT_LE(r.utilisation(), 0.25 + 1e-12); // §VI-C-2
    EXPECT_EQ(r.products, 256u);
}

TEST(RmStc, DisjointRowsWasteMergedLanes)
{
    RmStc model(kFp64);
    BlockPattern a, b;
    // Row 0 of A holds scalars at k=0 and k=1 (one pair).
    a.set(0, 0);
    a.set(0, 1);
    // B rows 0 and 1 are disjoint 4-wide: merged width 8.
    for (int c = 0; c < 4; ++c) {
        b.set(0, c);
        b.set(1, c + 4);
    }
    const RunResult r = run(model, BlockTask::mm(a, b));
    // Merged 8 columns swept 4 at a time: 2 cycles; every column has
    // exactly one contributing scalar, so half the K lanes waste.
    EXPECT_EQ(r.cycles, 2u);
    EXPECT_EQ(r.products, 8u);
    EXPECT_EQ(r.traffic.wastedB, 8u);
}

TEST(RmStc, SparseXStallsPairs)
{
    RmStc model(kFp64);
    BlockPattern a;
    a.set(0, 0);
    a.set(0, 1);
    // x empty at positions 0/1: the pair matches nothing but is
    // still issued (the SpMSpV weakness, §VI-C-2).
    const std::uint16_t x = 1u << 9;
    const RunResult r = run(model, BlockTask::mv(a, x));
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_EQ(r.products, 0u);
}

TEST(Gamma, CannotBypassEmptyRowsInsideSlice)
{
    auto model = makeStcModel("GAMMA", kFp64);
    BlockPattern a, b;
    // Column 0 of A has a single nonzero; B row 0 is dense.
    a.set(5, 0);
    for (int c = 0; c < kBlockSize; ++c)
        b.set(0, c);
    RunResult r;
    model->runBlock(BlockTask::mm(a, b), r);
    // 16 B nonzeros, 4 per cycle: 4 cycles; only 1 of 16 M lanes
    // effective.
    EXPECT_EQ(r.cycles, 4u);
    EXPECT_EQ(r.products, 16u);
    EXPECT_EQ(r.traffic.wastedA, 15u * 4);
}

TEST(Sigma, StationaryRowStreamsAllColumns)
{
    auto model = makeStcModel("SIGMA", kFp64);
    BlockPattern a, b;
    // One dense A row; B entirely empty: SIGMA still streams N.
    for (int k = 0; k < kBlockSize; ++k)
        a.set(3, k);
    RunResult r;
    model->runBlock(BlockTask::mm(a, b), r);
    EXPECT_EQ(r.cycles, 4u); // 16 columns / 4 per cycle
    EXPECT_EQ(r.products, 0u);
    EXPECT_EQ(r.traffic.wastedB, 16u * 16);
}

/** Each Trapezoid mode (TrIP, TrGT, TrGS) simulated in full. */
std::array<RunResult, 3>
trapezoidModes(const BlockTask &t, const MachineConfig &cfg)
{
    std::array<RunResult, 3> out;
    if (cfg.precision == Precision::FP64) {
        runRowDataflow<16, 2, 2, false>(t, cfg, 32, out[0]);
        runRowDataflow<16, 4, 1, false>(t, cfg, 32, out[1]);
        runRowDataflow<8, 4, 2, false>(t, cfg, 32, out[2]);
    } else {
        runRowDataflow<16, 4, 2, false>(t, cfg, 32, out[0]);
        runRowDataflow<16, 4, 2, false>(t, cfg, 32, out[1]);
        runRowDataflow<8, 4, 4, false>(t, cfg, 32, out[2]);
    }
    return out;
}

/** Reference pick: the first mode with the fewest cycles. */
const RunResult &
bestMode(const std::array<RunResult, 3> &modes)
{
    const RunResult *best = &modes[0];
    for (const RunResult &r : modes)
        if (r.cycles < best->cycles)
            best = &r;
    return *best;
}

TEST(Trapezoid, PicksBestModePerBlock)
{
    Rng rng(5);
    for (const MachineConfig &cfg :
         {MachineConfig::fp64(), MachineConfig::fp32()}) {
        const Trapezoid trap(cfg);
        for (int trial = 0; trial < 26; ++trial) {
            // Densities 0.02 to 0.94, then an empty A, then dense A and B.
            const double density = 0.02 + 0.04 * trial;
            const BlockPattern a = trial == 24 ? BlockPattern{}
                : trial == 25 ? BlockPattern::dense()
                              : BlockPattern::random(rng, density);
            const BlockPattern b = trial == 25
                ? BlockPattern::dense()
                : BlockPattern::random(rng, density);
            for (const BlockTask &t :
                 {BlockTask::mm(a, b), BlockTask::mv(a, b.rowBits(3))}) {
                SCOPED_TRACE(testing::Message()
                             << "macs " << cfg.macCount << " trial "
                             << trial << (t.isMv ? " MV" : " MM"));
                const std::array<RunResult, 3> modes =
                    trapezoidModes(t, cfg);
                // The one-walk count agrees with every full simulation.
                const std::array<std::uint64_t, 3> counted =
                    trap.modeCycles(t);
                for (int i = 0; i < 3; ++i)
                    EXPECT_EQ(counted[i], modes[i].cycles) << "mode " << i;
                expectSameResult(bestMode(modes), run(trap, t));
                // Adding into a non-empty result.
                RunResult want = modes[2], got = modes[2];
                want.merge(bestMode(modes));
                trap.runBlock(t, got);
                expectSameResult(want, got);
            }
        }
    }

    // Ties keep the first mode. FP64: row 0 reads B row 0 (columns
    // 0-1), row 8 reads B row 1 (columns 2-3); TrIP (16x2x2) and TrGT
    // (16x4x1) both take one cycle, and TrGT would write whole 4-wide
    // chunks.
    BlockPattern a64, b64;
    a64.set(0, 0);
    a64.set(8, 1);
    b64.set(0, 0);
    b64.set(0, 1);
    b64.set(1, 2);
    b64.set(1, 3);
    // FP32: row 0 holds four scalars, row 8 one. TrIP (16x4x2) takes
    // two cycles for row 0's two pairs, TrGS (8x4x4) one per row
    // group, and TrGS would issue fewer T3 tasks.
    BlockPattern a32, b32;
    for (int k = 0; k < 4; ++k) {
        a32.set(0, k);
        b32.set(k, 0);
    }
    a32.set(8, 0);
    const struct
    {
        MachineConfig cfg;
        BlockPattern a, b;
        int tiedWith; ///< Later mode that ties with TrIP.
    } ties[] = {
        {MachineConfig::fp64(), a64, b64, 1},
        {MachineConfig::fp32(), a32, b32, 2},
    };
    for (const auto &c : ties) {
        SCOPED_TRACE(testing::Message() << "tie at macs "
                                        << c.cfg.macCount);
        const BlockTask t = BlockTask::mm(c.a, c.b);
        const std::array<RunResult, 3> modes = trapezoidModes(t, c.cfg);
        const RunResult &tied = modes[c.tiedWith];
        ASSERT_EQ(bestMode(modes).cycles, modes[0].cycles);
        ASSERT_EQ(tied.cycles, modes[0].cycles);
        // The counters must tell the tied modes apart.
        ASSERT_TRUE(tied.traffic.writesC != modes[0].traffic.writesC ||
                    tied.tasksT3 != modes[0].tasksT3);
        expectSameResult(modes[0],
                         run(*makeStcModel("Trapezoid", c.cfg), t));
    }
}

TEST(Registry, CreatesEveryModel)
{
    for (const auto &name : allModelNames()) {
        auto model = makeStcModel(name, kFp64);
        ASSERT_NE(model, nullptr);
        EXPECT_EQ(model->name(), name);
        EXPECT_GT(model->network().aFactor, 0.0);
    }
    EXPECT_EQ(makeCoreLineup(kFp64).size(), 3u);
}

} // namespace
} // namespace unistc
