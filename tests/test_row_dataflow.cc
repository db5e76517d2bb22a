/**
 * @file
 * Direct tests of the grouped row-dataflow engine shared by RM-STC
 * and Trapezoid, including the gathered vs fixed-chunk column sweep,
 * and an exact differential against the per-row step-trace engine it
 * replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "common/small_vector.hh"
#include "obs/trace.hh"
#include "stc/row_dataflow.hh"

#include "run_result_eq.hh"

namespace unistc
{
namespace
{

const MachineConfig kFp64 = MachineConfig::fp64();
const MachineConfig kFp32 = MachineConfig::fp32();

template <int M, int N, int K, bool Gather>
RunResult
runEngine(const BlockTask &t, const MachineConfig &cfg = kFp64)
{
    RunResult r;
    runRowDataflow<M, N, K, Gather>(t, cfg, 8, r);
    return r;
}

// ---------------------------------------------------------------------
// Reference: the engine with a run-time geometry, as it was before the
// count-only pass. Every row records its sub-steps as RowStep events,
// then the group merges the rows in lock-step, one cycle per step
// index.
// ---------------------------------------------------------------------

struct RowStep
{
    int products = 0;
    int readsB = 0;
    int wastedB = 0;
    int writesC = 0;
};

void
referenceRowDataflow(const BlockTask &task, const MachineConfig &cfg,
                     int t3m, int t3n, int t3k, int c_net_units,
                     RunResult &res, bool gather_columns,
                     TraceSink *trace)
{
    ++res.tasksT1;
    const std::uint64_t t1_start = res.cycles;
    const int mac = cfg.macCount;
    const int n_ext = task.nExtent();
    const std::uint16_t n_mask = n_ext == kBlockSize
        ? 0xFFFFu
        : static_cast<std::uint16_t>((1u << n_ext) - 1u);
    const std::uint16_t *b_cols = task.bInfo().cols.data();

    SmallVector<RowStep, 64> row_steps[kBlockSize];

    for (int g = 0; g < kBlockSize; g += t3m) {
        const int n_rows = std::min(t3m, kBlockSize - g);

        for (int ri = 0; ri < n_rows; ++ri) {
            SmallVector<RowStep, 64> &steps = row_steps[ri];
            steps.clear();
            std::uint8_t ks[kBlockSize];
            int n_ks = 0;
            forEachSetBit(task.a.rowBits(g + ri), [&](int k) {
                ks[n_ks++] = static_cast<std::uint8_t>(k);
            });

            for (int p = 0; p < n_ks; p += t3k) {
                const int group_sz = std::min(t3k, n_ks - p);
                res.traffic.readsA += group_sz;
                res.traffic.wastedA += t3k - group_sz;
                ++res.tasksT3;

                std::uint16_t merged = 0;
                std::uint16_t gmask = 0;
                for (int q = 0; q < group_sz; ++q) {
                    merged = static_cast<std::uint16_t>(
                        merged | task.b.rowBits(ks[p + q]));
                    gmask = setBit(gmask, ks[p + q]);
                }
                merged &= n_mask;

                if (!merged) {
                    steps.push_back(RowStep{});
                    continue;
                }

                std::uint8_t cols[kBlockSize];
                int n_cols = 0;
                if (gather_columns) {
                    forEachSetBit(merged, [&](int c) {
                        cols[n_cols++] = static_cast<std::uint8_t>(c);
                    });
                } else {
                    for (int base = 0; base < n_ext; base += t3n) {
                        const int hi = std::min(base + t3n, n_ext);
                        const std::uint16_t chunk_mask =
                            static_cast<std::uint16_t>(
                                ((1u << (hi - base)) - 1u) << base);
                        if (!(merged & chunk_mask))
                            continue;
                        for (int c = base; c < hi; ++c)
                            cols[n_cols++] =
                                static_cast<std::uint8_t>(c);
                    }
                }
                for (int ci = 0; ci < n_cols; ci += t3n) {
                    RowStep step;
                    const int chunk = std::min(t3n, n_cols - ci);
                    for (int x = 0; x < chunk; ++x) {
                        const int hits = popcount16(
                            b_cols[cols[ci + x]] & gmask);
                        step.products += hits;
                        step.readsB += hits;
                        step.wastedB += group_sz - hits;
                        ++step.writesC;
                    }
                    steps.push_back(step);
                }
            }
        }

        std::size_t group_cycles = 0;
        for (int ri = 0; ri < n_rows; ++ri)
            group_cycles = std::max(group_cycles, row_steps[ri].size());

        const std::uint64_t group_start = res.cycles;
        for (std::size_t cyc = 0; cyc < group_cycles; ++cyc) {
            int eff = 0;
            for (int ri = 0; ri < n_rows; ++ri) {
                const SmallVector<RowStep, 64> &steps = row_steps[ri];
                if (cyc < steps.size()) {
                    eff += steps[cyc].products;
                    res.traffic.readsB += steps[cyc].readsB;
                    res.traffic.wastedB += steps[cyc].wastedB;
                    res.traffic.writesC += steps[cyc].writesC;
                }
            }
            res.recordCycle(mac, eff, 0, c_net_units);
        }
        if (group_cycles > 0) {
            UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu,
                                  "row group " + std::to_string(g / t3m),
                                  group_start, res.cycles - group_start);
        }
    }

    UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu, "T1 (row dataflow)",
                          t1_start, res.cycles - t1_start);
}

void
expectSameTrace(const TraceSink &want, const TraceSink &got)
{
    const std::vector<TraceEvent> w = want.events();
    const std::vector<TraceEvent> g = got.events();
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(g[i].phase, w[i].phase);
        EXPECT_EQ(g[i].tid, w[i].tid);
        EXPECT_EQ(g[i].ts, w[i].ts);
        EXPECT_EQ(g[i].dur, w[i].dur);
        EXPECT_EQ(g[i].name, w[i].name);
    }
}

/** A block whose entries are set with probability @p density. */
BlockPattern
patternAt(Rng &rng, double density)
{
    if (density >= 1.0)
        return BlockPattern::dense();
    if (density <= 0.0)
        return BlockPattern{};
    return BlockPattern::random(rng, density);
}

/**
 * Run the M x N x K engine and the step-trace reference on MM and MV
 * tasks over a density grid, each into a fresh result with traces and
 * into one accumulator carried across every case.
 */
template <int M, int N, int K, bool Gather>
void
expectMatchesReference(const MachineConfig &cfg, const char *geometry,
                       Rng &rng)
{
    const double densities[] = {0.0,  0.002, 0.01, 0.05,
                                0.15, 0.3,   0.5,  1.0};
    for (bool mv : {false, true}) {
        // The engines must also agree when adding into a non-empty
        // result.
        RunResult want_acc, got_acc;
        for (double da : densities) {
            for (double db : densities) {
                const BlockPattern a = patternAt(rng, da);
                const BlockPattern b = patternAt(rng, db);
                const BlockTask t = mv ? BlockTask::mv(a, b.rowBits(0))
                                       : BlockTask::mm(a, b);
                SCOPED_TRACE(testing::Message()
                             << geometry << (Gather ? " gather" : " chunks")
                             << (mv ? " MV" : " MM") << " dA=" << da
                             << " dB=" << db);

                RunResult want, got;
                TraceSink want_trace(64), got_trace(64);
                referenceRowDataflow(t, cfg, M, N, K, 32, want, Gather,
                                     &want_trace);
                runRowDataflow<M, N, K, Gather>(t, cfg, 32, got,
                                                &got_trace);
                expectSameResult(want, got);
                expectSameTrace(want_trace, got_trace);

                referenceRowDataflow(t, cfg, M, N, K, 32, want_acc, Gather,
                                     nullptr);
                runRowDataflow<M, N, K, Gather>(t, cfg, 32, got_acc);
                SCOPED_TRACE("accumulated");
                expectSameResult(want_acc, got_acc);
            }
        }
    }
}

template <int M, int N, int K>
void
expectMatchesReference(const MachineConfig &cfg, const char *geometry,
                       Rng &rng)
{
    expectMatchesReference<M, N, K, true>(cfg, geometry, rng);
    expectMatchesReference<M, N, K, false>(cfg, geometry, rng);
}

TEST(RowDataflow, MatchesStepTraceReference)
{
    // Every geometry the models instantiate, both sweeps each.
    Rng rng(664);
    expectMatchesReference<8, 4, 2>(kFp64, "RM-STC and TrGS fp64", rng);
    expectMatchesReference<16, 4, 2>(kFp32, "RM-STC, TrIP and TrGT fp32",
                                     rng);
    expectMatchesReference<16, 2, 2>(kFp64, "TrIP fp64", rng);
    expectMatchesReference<16, 4, 1>(kFp64, "TrGT fp64", rng);
    expectMatchesReference<8, 4, 4>(kFp32, "TrGS fp32", rng);
    // 256 sub-steps per dense row: the largest step bound.
    expectMatchesReference<1, 1, 1>(kFp64, "1x1x1", rng);
}

/** Both sweeps of the M x N x K engine conserve @p expect products. */
template <int M, int N, int K>
void
expectConserves(const BlockTask &t, std::uint64_t expect)
{
    // The 128-MAC geometries need the FP32 array.
    const MachineConfig &cfg = M * N * K <= kFp64.macCount ? kFp64 : kFp32;
    EXPECT_EQ((runEngine<M, N, K, true>(t, cfg).products), expect);
    EXPECT_EQ((runEngine<M, N, K, false>(t, cfg).products), expect);
}

TEST(RowDataflow, ProductConservationAllGeometries)
{
    Rng rng(661);
    for (int trial = 0; trial < 10; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.2);
        const BlockPattern b = BlockPattern::random(rng, 0.2);
        const BlockTask t = BlockTask::mm(a, b);
        const std::uint64_t expect =
            static_cast<std::uint64_t>(blockProductCount(a, b));
        expectConserves<8, 4, 2>(t, expect);
        expectConserves<16, 4, 1>(t, expect);
        expectConserves<16, 2, 2>(t, expect);
        expectConserves<8, 4, 4>(t, expect);
        expectConserves<16, 4, 2>(t, expect);
    }
}

TEST(RowDataflow, NoGatherNeverFaster)
{
    Rng rng(662);
    for (int trial = 0; trial < 15; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.15);
        const BlockPattern b = BlockPattern::random(rng, 0.15);
        const BlockTask t = BlockTask::mm(a, b);
        const RunResult gathered = runEngine<8, 4, 2, true>(t);
        const RunResult fixed = runEngine<8, 4, 2, false>(t);
        EXPECT_GE(fixed.cycles, gathered.cycles);
    }
}

TEST(RowDataflow, NoGatherSkipsEmptyChunks)
{
    // One scalar whose B row lives entirely in columns 0..3: the
    // other three chunks must not cost cycles.
    BlockPattern a, b;
    a.set(0, 0);
    for (int c = 0; c < 4; ++c)
        b.set(0, c);
    const RunResult r =
        runEngine<8, 4, 2, false>(BlockTask::mm(a, b));
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_EQ(r.products, 4u);
}

TEST(RowDataflow, NoGatherPaysInsideChunkSparsity)
{
    // B row with nonzeros at columns {0, 15}: gathered needs one
    // 4-wide sub-step; fixed chunks need two and waste lanes.
    BlockPattern a, b;
    a.set(0, 0);
    b.set(0, 0);
    b.set(0, 15);
    const BlockTask t = BlockTask::mm(a, b);
    EXPECT_EQ((runEngine<8, 4, 2, true>(t).cycles), 1u);
    const RunResult fixed = runEngine<8, 4, 2, false>(t);
    EXPECT_EQ(fixed.cycles, 2u);
    EXPECT_EQ(fixed.products, 2u);
}

TEST(RowDataflow, LockstepChargesSlowestRow)
{
    // Row 0: 8 scalars; rows 1..7 of the group: 0 scalars. The group
    // runs as long as row 0 needs.
    BlockPattern a, b;
    for (int k = 0; k < 8; ++k)
        a.set(0, k);
    for (int k = 0; k < 8; ++k)
        b.set(k, 0);
    const RunResult r =
        runEngine<8, 4, 2, true>(BlockTask::mm(a, b));
    // 4 scalar pairs, each with merged width 1: 4 sub-steps.
    EXPECT_EQ(r.cycles, 4u);
    EXPECT_EQ(r.products, 8u);
    // Utilisation is terrible: only one of eight rows works.
    EXPECT_LT(r.utilisation(), 0.05);
}

TEST(RowDataflow, MvRestrictsToColumnZero)
{
    Rng rng(663);
    const BlockPattern a = BlockPattern::random(rng, 0.3);
    const std::uint16_t x = 0b0011'1100'0011'1100;
    const BlockTask t = BlockTask::mv(a, x);
    const RunResult r = runEngine<8, 4, 2, true>(t);
    EXPECT_EQ(r.products,
              static_cast<std::uint64_t>(blockMvProductCount(a, x)));
}

TEST(RowDataflow, TasksT3CountsScalarGroups)
{
    BlockPattern a, b;
    for (int k = 0; k < 5; ++k) {
        a.set(2, k); // 5 scalars -> 3 pairs at K=2
        b.set(k, 3);
    }
    RunResult r;
    runRowDataflow<8, 4, 2, true>(BlockTask::mm(a, b), kFp64, 8, r);
    EXPECT_EQ(r.tasksT1, 1u);
    EXPECT_EQ(r.tasksT3, 3u);
}

} // namespace
} // namespace unistc
