#include "sm/sm_model.hh"

#include <algorithm>
#include <span>

#include "common/logging.hh"
#include "common/small_vector.hh"

namespace unistc
{

double
SmStats::unitUtilisation(int stc_units) const
{
    if (makespanCycles == 0 || stc_units <= 0)
        return 0.0;
    return static_cast<double>(busyUnitCycles) /
        (static_cast<double>(makespanCycles) * stc_units);
}

namespace
{

/**
 * The scheduler core over non-owning per-warp views: warp w executes
 * its bundles in order; a bundle's loads serialise on the warp, then
 * the bundle runs on the earliest-free STC unit (task generation
 * overlapping per §IV-G).
 */
SmStats
simulateSmWarpSpans(std::span<const std::span<const TaskBundle>> warp_streams,
                    int stc_units)
{
    UNISTC_ASSERT(stc_units > 0, "need at least one STC unit");

    SmStats stats;
    SmallVector<std::uint64_t, 16> unit_free;
    unit_free.resize(static_cast<std::size_t>(stc_units), 0);
    std::uint64_t makespan = 0;

    // Warps proceed independently; within a warp, bundles are issued
    // in program order. Round-robin over warps approximates the warp
    // scheduler: we advance the warp with the smallest local clock.
    struct WarpState
    {
        std::size_t next = 0;
        std::uint64_t clock = 0;
    };
    SmallVector<WarpState, 16> warps;
    warps.resize(warp_streams.size());

    for (;;) {
        // Pick the least-advanced warp that still has work.
        int pick = -1;
        for (std::size_t w = 0; w < warps.size(); ++w) {
            if (warps[w].next >= warp_streams[w].size())
                continue;
            if (pick < 0 || warps[w].clock < warps[pick].clock)
                pick = static_cast<int>(w);
        }
        if (pick < 0)
            break;

        WarpState &ws = warps[pick];
        const TaskBundle &bundle = warp_streams[pick][ws.next++];
        ++stats.tasksIssued;

        // Loads serialise on the warp (operand collector).
        ws.clock += static_cast<std::uint64_t>(bundle.loadCycles);

        // Earliest-free unit runs the bundle. Task generation
        // overlaps the unit's previous numeric phase (§IV-G), so the
        // unit is occupied for max(taskGen, numeric) but the warp
        // only waits for the numeric result.
        auto it = std::min_element(unit_free.begin(),
                                   unit_free.end());
        const std::uint64_t start = std::max(*it, ws.clock);
        const std::uint64_t busy = static_cast<std::uint64_t>(
            std::max(bundle.taskGenCycles, bundle.numericCycles));
        *it = start + busy;
        ws.clock = start + busy;
        stats.busyUnitCycles += busy;
        makespan = std::max(makespan, ws.clock);
    }

    stats.makespanCycles = makespan;
    return stats;
}

/** Contiguous near-equal split of @p bundles into @p parts views. */
SmStats
simulatePartitioned(std::span<const TaskBundle> bundles, int parts,
                    int stc_units)
{
    SmallVector<std::span<const TaskBundle>, 16> streams;
    const std::size_t n = bundles.size();
    for (int w = 0; w < parts; ++w) {
        const std::size_t begin = n * w / parts;
        const std::size_t end = n * (w + 1) / parts;
        streams.push_back(bundles.subspan(begin, end - begin));
    }
    return simulateSmWarpSpans(
        std::span<const std::span<const TaskBundle>>(streams.data(),
                                                     streams.size()),
        stc_units);
}

} // namespace

SmStats
simulateSm(const std::vector<TaskBundle> &bundles, const SmConfig &cfg)
{
    UNISTC_ASSERT(cfg.warps > 0, "need at least one warp");
    return simulatePartitioned(std::span<const TaskBundle>(bundles),
                               cfg.warps, cfg.stcUnits);
}

SmStats
simulateSmStream(TaskStream &stream, const MachineConfig &machine,
                 const SmConfig &cfg)
{
    return simulateSm(bundleStream(stream, machine), cfg);
}

SmStats
simulateDevice(const std::vector<TaskBundle> &bundles,
               const SmConfig &cfg, int num_sms)
{
    UNISTC_ASSERT(num_sms > 0, "need at least one SM");
    UNISTC_ASSERT(cfg.warps > 0, "need at least one warp");
    SmStats device;
    const std::span<const TaskBundle> all(bundles);
    const std::size_t n = bundles.size();
    for (int sm = 0; sm < num_sms; ++sm) {
        const std::size_t begin = n * sm / num_sms;
        const std::size_t end = n * (sm + 1) / num_sms;
        const SmStats s = simulatePartitioned(
            all.subspan(begin, end - begin), cfg.warps, cfg.stcUnits);
        device.makespanCycles =
            std::max(device.makespanCycles, s.makespanCycles);
        device.busyUnitCycles += s.busyUnitCycles;
        device.tasksIssued += s.tasksIssued;
    }
    return device;
}

} // namespace unistc
