/**
 * @file
 * Exact differentials of NV-DTC and SIGMA against the per-cycle bit
 * loops they replaced: every RunResult counter must match on MM and
 * MV tasks over a density grid, at both precisions, into a fresh
 * result and into one carried across every case.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "stc/nv_dtc.hh"
#include "stc/sigma.hh"

#include "run_result_eq.hh"

namespace unistc
{
namespace
{

/**
 * NV-DTC as a per-cycle loop: each dense T3 sub-cube pops the A
 * column slices and B row chunks of its four K levels.
 */
void
referenceNvDtc(const BlockTask &task, const MachineConfig &cfg,
               int c_net_units, RunResult &res)
{
    if (task.a.empty() || task.b.empty())
        return;
    ++res.tasksT1;
    const int mac = cfg.macCount;
    const int n_ext = task.nExtent();
    const int t3m = cfg.precision == Precision::FP64 ? 4 : 8;
    const int t3n = 4;
    const int t3k = 4;

    const int m_steps = kBlockSize / t3m;
    const int n_steps = static_cast<int>(ceilDiv(n_ext, t3n));
    const int k_steps = kBlockSize / t3k;
    const std::uint16_t *a_cols = task.aInfo().cols.data();

    for (int mi = 0; mi < m_steps; ++mi) {
        const std::uint16_t row_mask = static_cast<std::uint16_t>(
            ((1u << t3m) - 1u) << (mi * t3m));
        for (int ni = 0; ni < n_steps; ++ni) {
            const int col_hi = std::min((ni + 1) * t3n, n_ext);
            const std::uint16_t col_mask = static_cast<std::uint16_t>(
                ((1u << (col_hi - ni * t3n)) - 1u) << (ni * t3n));
            for (int ki = 0; ki < k_steps; ++ki) {
                int eff = 0;
                int b_rows_nnz = 0;
                int a_sub_nnz = 0;
                for (int k = ki * t3k; k < (ki + 1) * t3k; ++k) {
                    const int a_cnt = popcount16(a_cols[k] & row_mask);
                    const int b_cnt =
                        popcount16(task.b.rowBits(k) & col_mask);
                    eff += a_cnt * b_cnt;
                    a_sub_nnz += a_cnt;
                    b_rows_nnz += b_cnt;
                }
                ++res.tasksT3;
                res.recordCycle(mac, eff, 0, c_net_units);

                const int a_slots = t3m * t3k;
                const int b_slots =
                    t3k * std::min(t3n, n_ext - ni * t3n);
                res.traffic.readsA += a_sub_nnz;
                res.traffic.wastedA += a_slots - a_sub_nnz;
                res.traffic.readsB += b_rows_nnz;
                res.traffic.wastedB += b_slots - b_rows_nnz;
            }
        }
    }
    res.traffic.writesC +=
        static_cast<std::uint64_t>(kBlockSize) * n_ext;
}

/**
 * SIGMA as a per-cycle loop: each packed group of 16 A nonzeros
 * decomposes its per-K lane counts into bit-planes, and every
 * streamed column pops its B column against each plane.
 */
void
referenceSigma(const BlockTask &task, const MachineConfig &cfg,
               int c_net_units, RunResult &res)
{
    ++res.tasksT1;
    const int mac = cfg.macCount;
    const int n_ext = task.nExtent();
    const int t3n = cfg.precision == Precision::FP64 ? 4 : 8;
    const int t3k = 16;

    std::uint8_t nz_row[kBlockSize * kBlockSize];
    std::uint8_t nz_k[kBlockSize * kBlockSize];
    int n_nz = 0;
    for (int r = 0; r < kBlockSize; ++r) {
        forEachSetBit(task.a.rowBits(r), [&](int k) {
            nz_row[n_nz] = static_cast<std::uint8_t>(r);
            nz_k[n_nz] = static_cast<std::uint8_t>(k);
            ++n_nz;
        });
    }
    if (n_nz == 0)
        return;

    const std::uint16_t *b_cols = task.bInfo().cols.data();
    const int n_steps = static_cast<int>(ceilDiv(n_ext, t3n));
    for (int base = 0; base < n_nz; base += t3k) {
        const int group = std::min(t3k, n_nz - base);
        res.traffic.readsA += group;
        res.traffic.wastedA += t3k - group;

        int cnt[kBlockSize] = {};
        for (int g = 0; g < group; ++g)
            ++cnt[nz_k[base + g]];
        std::uint16_t plane[5] = {};
        for (int k = 0; k < kBlockSize; ++k) {
            for (int p = 0; p < 5; ++p) {
                if (cnt[k] & (1 << p))
                    plane[p] = setBit(plane[p], k);
            }
        }

        int row_segments = 1;
        for (int g = 1; g < group; ++g) {
            if (nz_row[base + g] != nz_row[base + g - 1])
                ++row_segments;
        }

        for (int ni = 0; ni < n_steps; ++ni) {
            const int chunk = std::min(t3n, n_ext - ni * t3n);
            int eff = 0;
            for (int x = 0; x < chunk; ++x) {
                const std::uint16_t b_col = b_cols[ni * t3n + x];
                int hits = 0;
                for (int p = 0; p < 5; ++p)
                    hits += popcount16(b_col & plane[p]) << p;
                eff += hits;
                res.traffic.readsB += hits;
                res.traffic.wastedB += group - hits;
            }
            res.traffic.writesC +=
                static_cast<std::uint64_t>(row_segments) * chunk;
            ++res.tasksT3;
            res.recordCycle(mac, eff, 0, c_net_units);
        }
    }
}

using Reference = void (*)(const BlockTask &, const MachineConfig &, int,
                           RunResult &);

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

void
expectMatchesReference(const StcModel &model, Reference reference,
                       Rng &rng)
{
    const double densities[] = {0.0,  0.002, 0.01, 0.05,
                                0.15, 0.3,   0.5,  1.0};
    const int c_net_units = model.network().cNetUnits;
    for (bool mv : {false, true}) {
        RunResult want_acc, got_acc;
        for (double da : densities) {
            for (double db : densities) {
                const BlockPattern a = patternAt(rng, da);
                const BlockPattern b = patternAt(rng, db);
                const BlockTask t = mv ? BlockTask::mv(a, b.rowBits(0))
                                       : BlockTask::mm(a, b);
                SCOPED_TRACE(testing::Message()
                             << model.name() << " macs "
                             << model.config().macCount
                             << (mv ? " MV" : " MM") << " dA=" << da
                             << " dB=" << db);
                RunResult want, got;
                reference(t, model.config(), c_net_units, want);
                model.runBlock(t, got);
                expectSameResult(want, got);

                reference(t, model.config(), c_net_units, want_acc);
                model.runBlock(t, got_acc);
                SCOPED_TRACE("accumulated");
                expectSameResult(want_acc, got_acc);
            }
        }
    }
}

TEST(NvDtc, MatchesPerCycleReference)
{
    Rng rng(671);
    for (const MachineConfig &cfg :
         {MachineConfig::fp64(), MachineConfig::fp32()})
        expectMatchesReference(NvDtc(cfg), referenceNvDtc, rng);
}

TEST(Sigma, MatchesPerCycleReference)
{
    Rng rng(672);
    for (const MachineConfig &cfg :
         {MachineConfig::fp64(), MachineConfig::fp32()})
        expectMatchesReference(Sigma(cfg), referenceSigma, rng);
}

} // namespace
} // namespace unistc
