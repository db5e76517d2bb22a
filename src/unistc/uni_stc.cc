#include "unistc/uni_stc.hh"

#include <algorithm>
#include <string>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "unistc/sdpu.hh"
#include "unistc/tms.hh"

namespace unistc
{

NetworkConfig
UniStc::network() const
{
    // Hierarchical two-layer network (§IV-C-2): the dedicated 16x8
    // tile networks plus the 64x5 / 64x9 MUX arrays cut energy per
    // byte by 7.16x (A), 5.33x (B) and 2.83x (C) relative to flat
    // 64x256 crossbars. The C path is one 16x16 network per DPG, all
    // of which are power-gated with their DPG.
    NetworkConfig net;
    net.aFactor = 7.16;
    net.bFactor = 5.33;
    net.cFactor = 2.83;
    net.cNetUnits = cfg_.numDpgs;
    net.dynamicGating = true;
    return net;
}

void
UniStc::runBlock(const BlockTask &task, RunResult &res,
                 TraceSink *trace) const
{
    ++res.tasksT1;
    const int mac = cfg_.macCount;
    const int n_tile_cols = task.isMv ? 1 : kTilesPerEdge;
    const std::uint64_t t0 = res.cycles;

    // Stage 1: TMS generates the ordered T3 task stream (from the
    // task's memoized pattern summaries, shared across a lineup).
    const TileTaskList tasks = generateTileTasks(
        task.aInfo(), task.bInfo(), n_tile_cols, ordering_, adaptive_);
    if (tasks.empty())
        return;
    res.tasksT3 += tasks.size();

    // Stages 2+3: DPG expansion and SDPU packing. The three-stage
    // pipeline overlaps task generation with execution (task
    // generation is asynchronous, §IV-G), so steady-state cycles are
    // the SDPU cycles.
    std::uint64_t block_products = 0;
    std::uint64_t block_active_dpgs = 0;
    std::uint64_t n_cycles = 0;
    forEachSdpuCycle(
        std::span<const TileTask>(tasks.data(), tasks.size()),
        cfg_.numDpgs, mac, /*check_conflicts=*/!task.isMv,
        [&](const SdpuCycleView &cycle) {
        const int eff = cycle.totalProducts;
        res.recordCycle(mac, eff, cycle.activeDpgs(),
                        static_cast<int>(cycle.executed.size()));
        block_products += static_cast<std::uint64_t>(eff);
        block_active_dpgs +=
            static_cast<std::uint64_t>(cycle.activeDpgs());
        if (cycle.hadConflict) {
            ++res.stallCycles;
            UNISTC_TRACE_INSTANT(trace, TraceTrack::Sdpu,
                                 "C write-back stall", t0 + n_cycles);
        }

        // Operand traffic: a tile shared by several tasks in one
        // cycle is fetched once (the reuse the outer-product order
        // creates); bitmap gating means no dead element is touched.
        // Tile identities are i*4+k / k*4+j in 0..15, so the
        // seen-sets are 16-bit masks.
        std::uint16_t a_tiles_seen = 0;
        std::uint16_t b_tiles_seen = 0;
        for (const TileTask *t : cycle.executed) {
            const int a_id = t->i * kTilesPerEdge + t->k;
            if (!testBit(a_tiles_seen, a_id)) {
                a_tiles_seen = setBit(a_tiles_seen, a_id);
                res.traffic.readsA += t->aElems();
            }
            const int b_id = t->k * kTilesPerEdge + t->j;
            if (!testBit(b_tiles_seen, b_id)) {
                b_tiles_seen = setBit(b_tiles_seen, b_id);
                res.traffic.readsB += t->bElems();
            }
            // The SDPU pre-merges each T4 segment's products into a
            // single partial sum before write-back (§IV-B).
            res.traffic.writesC += t->segments();
        }
        ++n_cycles;
    });

    if (UNISTC_TRACE_ACTIVE(trace)) {
        // The TMS feeds one T3 task per cycle into the Tile queue and
        // the whole stream overlaps the SDPU cycles (asynchronous
        // generation, §IV-G).
        trace->complete(TraceTrack::Tms,
                        "T3 gen x" + std::to_string(tasks.size()), t0,
                        std::min<std::uint64_t>(tasks.size(),
                                                n_cycles));
        trace->complete(TraceTrack::Dpg, "T4 expand", t0, n_cycles);
        trace->complete(TraceTrack::Sdpu,
                        std::string(task.isMv ? "segments MV"
                                              : "segments MM") +
                            " x" + std::to_string(block_products),
                        t0, n_cycles);
        // Per-block summary counters (Perfetto counter tracks): MAC
        // utilisation and active-DPG occupancy over this T1 task.
        const double denom =
            static_cast<double>(mac) * static_cast<double>(n_cycles);
        trace->counter("macUtil", t0,
                       denom > 0.0
                           ? static_cast<double>(block_products) /
                                 denom
                           : 0.0);
        trace->counter("activeDpgs", t0,
                       n_cycles > 0
                           ? static_cast<double>(block_active_dpgs) /
                                 static_cast<double>(n_cycles)
                           : 0.0);
    }
}

} // namespace unistc
