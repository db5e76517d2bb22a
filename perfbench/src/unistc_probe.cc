/**
 * @file
 * Uni-STC stage probe. Replays a plan's T1 tasks through the three
 * public stage functions — generateTileTasks (TMS), expandTileTaskInline
 * (DPG) and forEachSdpuCycle (SDPU) — timing each stage over chunks of
 * materialised tasks. It estimates how model.uni_stc_s splits; the
 * model itself is never touched, so the probe stays out of the
 * accounting sum. Pattern summaries are computed before timing: in a
 * lineup their cost lands on whichever model touches a task first.
 */

#include <span>

#include "bench.hh"
#include "engine/task_stream.hh"
#include "unistc/dpg.hh"
#include "unistc/sdpu.hh"
#include "unistc/tms.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kChunk = 4096;

double
since(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

} // namespace

void
UniProbe::replay(const unistc::KernelPlan &plan,
                 const unistc::MachineConfig &cfg)
{
    using namespace unistc;
    const auto stream = plan.stream();
    std::vector<StreamedTask> chunk;
    std::vector<TileTaskList> tiles;
    chunk.reserve(kChunk);
    tiles.reserve(kChunk);
    for (bool more = true; more;) {
        chunk.clear();
        tiles.clear();
        StreamedTask item;
        while (chunk.size() < kChunk && (more = stream->next(item))) {
            item.task.aInfo();
            item.task.bInfo();
            chunk.push_back(item);
        }

        auto t0 = SteadyClock::now();
        for (const StreamedTask &st : chunk) {
            const BlockTask &task = st.task;
            tiles.push_back(generateTileTasks(
                task.aInfo(), task.bInfo(),
                task.isMv ? 1 : kTilesPerEdge, TaskOrdering::OuterProduct));
        }
        tmsSeconds += since(t0);

        t0 = SteadyClock::now();
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            const int n_cols = chunk[i].task.isMv ? 1 : 4;
            for (const TileTask &t : tiles[i]) {
                t4Tasks +=
                    expandTileTaskInline(t.aTile, t.bTile, n_cols).size();
            }
        }
        dpgSeconds += since(t0);

        t0 = SteadyClock::now();
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            t3Tasks += tiles[i].size();
            if (tiles[i].empty())
                continue;
            forEachSdpuCycle(
                std::span<const TileTask>(tiles[i].data(), tiles[i].size()),
                cfg.numDpgs, cfg.macCount, !chunk[i].task.isMv,
                [&](const SdpuCycleView &) { ++sdpuCycles; });
        }
        sdpuSeconds += since(t0);
    }
}

} // namespace perfbench
