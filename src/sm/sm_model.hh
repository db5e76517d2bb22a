/**
 * @file
 * SM-level integration model (Fig. 7b, §IV-E): Uni-STC units sit in
 * the GPU streaming multiprocessor as coprocessors (the paper
 * projects 4 per SM x 108 SMs). Warps issue UWMMA task bundles; the
 * SM's operand collector serialises each warp's loads, task
 * generation runs asynchronously inside a unit, and the numeric
 * phase occupies the unit. This list scheduler computes the
 * multi-warp makespan and unit utilisation, enabling SM- and
 * device-level throughput projections on top of the per-unit
 * cycle model.
 */

#ifndef UNISTC_SM_SM_MODEL_HH
#define UNISTC_SM_SM_MODEL_HH

#include <cstdint>
#include <vector>

#include "isa/uwmma.hh"

namespace unistc
{

/** SM configuration. */
struct SmConfig
{
    int stcUnits = 4;  ///< Uni-STC units per SM (paper: 4).
    int warps = 8;     ///< Concurrent warps issuing UWMMA work.
};

/** Outcome of scheduling a workload on one SM. */
struct SmStats
{
    std::uint64_t makespanCycles = 0; ///< Completion time.
    std::uint64_t busyUnitCycles = 0; ///< Sum of unit busy time.
    std::uint64_t tasksIssued = 0;    ///< T1 bundles executed.

    /** Mean fraction of unit time spent computing. */
    double unitUtilisation(int stc_units) const;
};

/**
 * Partition a flat T1 bundle stream across warps (contiguous,
 * near-equal chunks — the §V-A static balancing at bundle
 * granularity) and schedule it on the SM.
 */
SmStats simulateSm(const std::vector<TaskBundle> &bundles,
                   const SmConfig &cfg);

/**
 * Device-level projection: split @p bundles across @p num_sms SMs
 * (contiguous chunks) and return the slowest SM's makespan.
 */
SmStats simulateDevice(const std::vector<TaskBundle> &bundles,
                       const SmConfig &cfg, int num_sms);

} // namespace unistc

#endif // UNISTC_SM_SM_MODEL_HH
