#include "isa/uwmma.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "engine/task_stream.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmv_runner.hh"
#include "unistc/sdpu.hh"
#include "unistc/tms.hh"

namespace unistc
{

const char *
mnemonic(UwmmaOp op)
{
    switch (op) {
      case UwmmaOp::LoadMetaMv:
        return "stc.load.meta_mv";
      case UwmmaOp::LoadMetaMm:
        return "stc.load.meta_mm";
      case UwmmaOp::LoadA:
        return "stc.load.a";
      case UwmmaOp::TaskGenMv:
        return "stc.task_gen.mv";
      case UwmmaOp::TaskGenMm:
        return "stc.task_gen.mm";
      case UwmmaOp::NumericMv:
        return "stc.numeric.mv";
      case UwmmaOp::NumericMm:
        return "stc.numeric.mm";
    }
    return "?";
}

namespace
{

TaskBundle
buildTaskBundleFromMeta(const PatternMeta &a_meta,
                        const PatternMeta &b_meta, bool is_mv,
                        const MachineConfig &cfg)
{
    TaskBundle bundle;

    // Synchronous loads: meta (1 cycle) + A values (2 cycles).
    bundle.instrs.push_back({is_mv ? UwmmaOp::LoadMetaMv
                                   : UwmmaOp::LoadMetaMm,
                             1});
    bundle.instrs.push_back({UwmmaOp::LoadA, 2});
    bundle.loadCycles = 3;

    // Task generation: the TMS emits up to numDpgs T3 tasks per
    // cycle into the Tile queue. Table V bounds: MV 1-4, MM 1-8.
    const int n_tile_cols = is_mv ? 1 : kTilesPerEdge;
    const TileTaskList tasks =
        generateTileTasks(a_meta, b_meta, n_tile_cols,
                          TaskOrdering::OuterProduct);
    const int gen_max = is_mv ? 4 : 8;
    int gen = static_cast<int>(
        ceilDiv(tasks.size(), static_cast<std::uint64_t>(
                                  std::max(1, cfg.numDpgs))));
    gen = std::clamp(gen, 1, gen_max);
    bundle.taskGenCycles = gen;
    bundle.instrs.push_back({is_mv ? UwmmaOp::TaskGenMv
                                   : UwmmaOp::TaskGenMm,
                             gen});

    // Numeric: the SDPU packing determines the cycle count. Table V
    // bounds: MV 1-8, MM 1-64.
    int numeric = 1;
    if (!tasks.empty()) {
        int cycles = 0;
        forEachSdpuCycle(
            std::span<const TileTask>(tasks.data(), tasks.size()),
            cfg.numDpgs, cfg.macCount, /*check_conflicts=*/!is_mv,
            [&](const SdpuCycleView &) { ++cycles; });
        numeric = cycles;
    }
    numeric = std::clamp(numeric, 1, is_mv ? 8 : 64);
    bundle.numericCycles = numeric;
    bundle.instrs.push_back({is_mv ? UwmmaOp::NumericMv
                                   : UwmmaOp::NumericMm,
                             numeric});
    return bundle;
}

} // namespace

TaskBundle
buildTaskBundle(const BlockPattern &a, const BlockPattern &b,
                bool is_mv, const MachineConfig &cfg)
{
    return buildTaskBundleFromMeta(computePatternMeta(a),
                                   computePatternMeta(b), is_mv, cfg);
}

TaskBundle
buildTaskBundle(const BlockTask &task, const MachineConfig &cfg)
{
    return buildTaskBundleFromMeta(task.aInfo(), task.bInfo(),
                                   task.isMv, cfg);
}

LifecycleStats
simulateLifecycle(const std::vector<TaskBundle> &tasks,
                  bool async_task_gen)
{
    LifecycleStats stats;
    // Cycle at which the task queues of the *current* task become
    // READY, relative to the global clock.
    std::uint64_t clock = 0;
    std::uint64_t queues_ready = 0;

    for (const auto &t : tasks) {
        stats.instructions += t.instrs.size();
        stats.loadCycles += t.loadCycles;
        stats.numericCycles +=
            static_cast<std::uint64_t>(t.numericCycles);

        // Loads are synchronous on the SM.
        clock += static_cast<std::uint64_t>(t.loadCycles);

        if (async_task_gen) {
            // stc.task_gen retires immediately; generation runs in
            // the background starting now.
            queues_ready = clock +
                static_cast<std::uint64_t>(t.taskGenCycles);
            // stc.numeric stalls while the flag is BUSY.
            if (queues_ready > clock) {
                const std::uint64_t stall =
                    std::min<std::uint64_t>(queues_ready - clock,
                                            t.taskGenCycles);
                // The SDPU can begin draining as soon as the first
                // queue entries land; model a one-cycle fill stall
                // only when generation has not produced anything yet.
                const std::uint64_t observed_stall =
                    stall > static_cast<std::uint64_t>(
                                t.numericCycles)
                    ? stall - t.numericCycles
                    : 0;
                stats.taskGenStalls += observed_stall;
                clock += observed_stall;
            }
            clock += static_cast<std::uint64_t>(t.numericCycles);
        } else {
            // Serialised ablation: generation completes before the
            // numeric phase starts.
            clock += static_cast<std::uint64_t>(t.taskGenCycles);
            stats.taskGenStalls +=
                static_cast<std::uint64_t>(t.taskGenCycles);
            clock += static_cast<std::uint64_t>(t.numericCycles);
        }
    }
    stats.totalCycles = clock;
    return stats;
}

std::vector<TaskBundle>
bundleStream(TaskStream &stream, const MachineConfig &cfg)
{
    std::vector<TaskBundle> out;
    StreamedTask item;
    while (stream.next(item))
        out.push_back(buildTaskBundle(item.task, cfg));
    return out;
}

std::vector<TaskBundle>
traceSpmv(const BbcMatrix &a, const MachineConfig &cfg)
{
    const SpmvPlan plan(a);
    const auto stream = plan.stream();
    return bundleStream(*stream, cfg);
}

std::vector<TaskBundle>
traceSpmm(const BbcMatrix &a, int b_cols, const MachineConfig &cfg)
{
    UNISTC_ASSERT(b_cols > 0, "SpMM needs a B width");
    // The B block columns SpmmPlan's stream visits per A block:
    // full_cols dense ones, then a partial-width last one when
    // b_cols % 16 != 0. Their summaries are the same for every block.
    const int full_cols = b_cols / kBlockSize;
    const int tail_width = b_cols % kBlockSize;
    const PatternMeta full_b = computePatternMeta(BlockPattern::dense());
    const PatternMeta tail_b = tail_width > 0
        ? computePatternMeta(BlockPattern::dense(tail_width))
        : PatternMeta();
    std::vector<TaskBundle> out;
    out.reserve(a.numBlocks() * ceilDiv(b_cols, kBlockSize));
    for (std::int64_t blk = 0; blk < a.numBlocks(); ++blk) {
        const PatternMeta a_meta =
            computePatternMeta(a.blockPattern(blk));
        // Every full-width column induces the identical bundle.
        if (full_cols > 0) {
            const TaskBundle bundle = buildTaskBundleFromMeta(
                a_meta, full_b, /*is_mv=*/false, cfg);
            for (int bj = 0; bj < full_cols; ++bj)
                out.push_back(bundle);
        }
        if (tail_width > 0) {
            out.push_back(buildTaskBundleFromMeta(
                a_meta, tail_b, /*is_mv=*/false, cfg));
        }
    }
    return out;
}

std::vector<TaskBundle>
traceSpgemm(const BbcMatrix &a, const BbcMatrix &b,
            const MachineConfig &cfg)
{
    const SpgemmPlan plan(a, b);
    const auto stream = plan.stream();
    return bundleStream(*stream, cfg);
}

} // namespace unistc
