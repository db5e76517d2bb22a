/**
 * @file
 * Raw event counters produced by an STC model run, plus the derived
 * metrics (utilisation, energy, network scale) the figures report.
 */

#ifndef UNISTC_SIM_RESULT_HH
#define UNISTC_SIM_RESULT_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/stats.hh"

namespace unistc
{

/** Operand-movement counters (element granularity). */
struct TrafficCounters
{
    std::uint64_t readsA = 0;   ///< A operand fetches (effective).
    std::uint64_t wastedA = 0;  ///< A fetch slots with no useful work.
    std::uint64_t readsB = 0;   ///< B operand fetches (effective).
    std::uint64_t wastedB = 0;  ///< B fetch slots with no useful work.
    std::uint64_t writesC = 0;  ///< Partial-sum write-backs to C.

    void merge(const TrafficCounters &o);

    std::uint64_t totalA() const { return readsA + wastedA; }
    std::uint64_t totalB() const { return readsB + wastedB; }
};

/** Energy split the paper's Fig. 18 reports (picojoules). */
struct EnergyBreakdown
{
    double fetchA = 0.0;   ///< Reading matrix A operands.
    double fetchB = 0.0;   ///< Reading matrix B / vector operands.
    double writeC = 0.0;   ///< Writing matrix C partial sums.
    double schedule = 0.0; ///< TMS/DPG/queue (task preparation).
    double compute = 0.0;  ///< MAC array.

    double total() const
    {
        return fetchA + fetchB + writeC + schedule + compute;
    }

    void merge(const EnergyBreakdown &o);
};

/** Accumulated outcome of simulating a stream of T1 block tasks. */
struct RunResult
{
    RunResult();

    std::uint64_t cycles = 0;     ///< Execution cycles.
    std::uint64_t products = 0;   ///< Effective multiply-accumulates.
    std::uint64_t macSlots = 0;   ///< cycles * macCount (capacity).
    std::uint64_t tasksT1 = 0;    ///< T1 block tasks issued.
    std::uint64_t tasksT3 = 0;    ///< T3 (tile-level) tasks scheduled.
    std::uint64_t stallCycles = 0;///< Cycles lost to write conflicts.

    /** Sum over cycles of active DPGs (Uni-STC dynamic gating). */
    std::uint64_t dpgActiveAccum = 0;

    /**
     * Sum over cycles of the C-write network scale in active 16x16
     * network units; avg = cNetScaleAccum / cycles (Fig. 19).
     */
    std::uint64_t cNetScaleAccum = 0;

    /** Buckets of utilHist. */
    static constexpr int kUtilBuckets = 4;

    /** Per-cycle MAC utilisation in 4 buckets: 0-25/25-50/50-75/75-100. */
    Histogram utilHist;

    TrafficCounters traffic;
    EnergyBreakdown energy; ///< Filled in by EnergyModel::finalize().

    /**
     * Record one execution cycle with @p eff effective products.
     * Every model calls this once per simulated cycle, so it is
     * inline; the per-cycle MAC bound stays checked in every build.
     */
    void
    recordCycle(int mac_count, int eff, int active_dpgs = 0,
                int c_net_units = 0)
    {
        UNISTC_ASSERT(eff >= 0 && eff <= mac_count, "cycle products ",
                      eff, " out of [0, ", mac_count, "]");
        ++cycles;
        products += eff;
        macSlots += mac_count;
        dpgActiveAccum += active_dpgs;
        cNetScaleAccum += c_net_units;
        utilHist.addRatio(eff, mac_count);
    }

    /** Overall MAC utilisation in [0, 1]. */
    double utilisation() const;

    /** Average active DPG count per cycle. */
    double avgActiveDpgs() const;

    /** Average C-write network scale (16x16 network units). */
    double avgCNetScale() const;

    /** Wall time at @p freq_ghz, in nanoseconds. */
    double timeNs(double freq_ghz) const;

    /** Fold another result into this one (same machine config). */
    void merge(const RunResult &o);

    /**
     * Multiply every counter (and the finalized energy) by @p factor —
     * used to account for a workload executed @p factor times, e.g.
     * the same SpMV in every AMG V-cycle.
     */
    void scale(std::uint64_t factor);
};

} // namespace unistc

#endif // UNISTC_SIM_RESULT_HH
