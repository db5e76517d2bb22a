/**
 * @file
 * Walk-through of the paper's Fig. 14 hardware-dataflow case study:
 * one T1 task dissected step by step on Uni-STC — TMS task
 * generation, DPG T4 expansion (with the 8-bit task codes), SDPU
 * packing — followed by the three-way utilisation comparison.
 */

#include <cstdio>

#include "common/bitops.hh"
#include "common/table.hh"
#include "stc/registry.hh"
#include "unistc/dpg.hh"
#include "unistc/sdpu.hh"
#include "unistc/tms.hh"

using namespace unistc;

int
main()
{
    // A structured sparse task: clustered + scattered nonzeros.
    BlockPattern a, b;
    for (int blk = 0; blk < 4; ++blk) {
        for (int r = 0; r < 3; ++r) {
            for (int c = 0; c < 3; ++c)
                a.set(blk * 4 + r, blk * 4 + c);
        }
    }
    for (int k = 0; k < kBlockSize; ++k) {
        b.set(k, (k * 5) % 16);
        b.set(k, (k * 7 + 3) % 16);
        b.set(k, (k * 11 + 8) % 16);
    }
    std::printf("Task: nnz(A)=%d nnz(B)=%d, %d intermediate "
                "products\n\n",
                a.nnz(), b.nnz(), blockProductCount(a, b));

    // Stage 1: TMS generates the outer-product-ordered T3 stream.
    const auto tasks = generateTileTasks(a, b, 4,
                                         TaskOrdering::OuterProduct);
    std::printf("Stage 1 (TMS): %zu T3 tasks across 4 K layers\n",
                tasks.size());
    for (std::size_t i = 0; i < tasks.size() && i < 6; ++i) {
        const TileTask &t = tasks[i];
        std::printf("  T3[%zu]: C(%d,%d) += A(%d,%d) x B(%d,%d)  "
                    "products=%d segments=%d\n",
                    i, t.i, t.j, t.i, t.k, t.k, t.j, t.products,
                    t.segments());
    }
    if (tasks.size() > 6)
        std::printf("  ... (%zu more)\n", tasks.size() - 6);

    // Stage 2: one DPG expands the first T3 task into T4 codes.
    std::printf("\nStage 2 (DPG): T4 codes of the first task "
                "(Z-shaped fill)\n");
    const auto t4 = expandTileTask(tasks[0].aTile, tasks[0].bTile, 4);
    for (const auto &seg : t4) {
        std::printf("  code 0x%02X -> C tile nonzero #%d, pattern "
                    "%d%d%d%d, length %d\n",
                    seg.code(), seg.target, testBit(seg.pattern, 3),
                    testBit(seg.pattern, 2), testBit(seg.pattern, 1),
                    testBit(seg.pattern, 0), seg.len());
    }
    const BroadcastRange range = broadcastRange(t4);
    std::printf("  broadcast range: A <= %d multipliers, B <= %d "
                "(paper bounds: 5 and 9)\n",
                range.maxRangeA, range.maxRangeB);

    // Stage 3: SDPU packing.
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    std::printf("\nStage 3 (SDPU): %zu cycles\n", cycles.size());
    for (std::size_t c = 0; c < cycles.size() && c < 5; ++c) {
        std::printf("  cycle %zu: %zu tasks, %d/64 products, "
                    "%d DPG(s) waiting\n",
                    c, cycles[c].executed.size(),
                    cycles[c].products(), cycles[c].waitingDpgs);
    }

    // Three-way comparison (the figure's headline).
    std::printf("\n");
    TextTable t("Fig. 14 comparison (64 MACs)");
    t.setHeader({"STC", "cycles", "MAC utilisation"});
    const BlockTask task = BlockTask::mm(a, b);
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, MachineConfig::fp64());
        RunResult r;
        model->runBlock(task, r);
        t.addRow({name, fmtCount(r.cycles),
                  fmtPercent(r.utilisation())});
    }
    t.print();
    std::printf("\nPaper reference: 37.5%% (DS) / 50%% (RM) / 75%% "
                "(Uni) on the downsized example.\n");
    return 0;
}
