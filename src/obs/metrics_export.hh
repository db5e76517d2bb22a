/**
 * @file
 * JSON metrics exporter: standard registrations that mirror every
 * RunResult / config / trace-health quantity into a StatRegistry
 * under stable, schema-versioned keys, plus the stats-JSON envelope
 * writer the CLI and bench harnesses share.
 */

#ifndef UNISTC_OBS_METRICS_EXPORT_HH
#define UNISTC_OBS_METRICS_EXPORT_HH

#include <ostream>
#include <string>

#include "obs/stat_registry.hh"
#include "sim/config.hh"
#include "sim/result.hh"

namespace unistc
{

class TraceSink;

/** Stats JSON envelope identity. Bump the version on key changes. */
inline constexpr const char *kStatsSchemaName = "unistc-stats";
inline constexpr int kStatsSchemaVersion = 1;

/**
 * Register every RunResult field under @p prefix: raw counters
 * (cycles, products, macSlots, tasksT1/T3, stallCycles, traffic.*),
 * derived scalars (utilisation, avgActiveDpgs, avgCNetScale,
 * energy.*) and the per-cycle MAC utilisation histogram.
 */
void registerRunResult(StatRegistry &reg, const RunResult &res,
                       const std::string &prefix = "");

/** Register the machine configuration under @p prefix. */
void registerMachineConfig(StatRegistry &reg, const MachineConfig &cfg,
                           const std::string &prefix = "config.");

/** Register tracer health counters (recorded/dropped) of @p sink. */
void registerTraceSinkStats(StatRegistry &reg, const TraceSink &sink,
                            const std::string &prefix = "trace.");

/**
 * Write the schema envelope around the registry body:
 *   {"schema": "unistc-stats", "version": 1, "stats": {...}}
 */
void writeStatsJson(const StatRegistry &reg, std::ostream &os);

/** writeStatsJson() to @p path; fatal() on I/O failure. */
void writeStatsJsonFile(const StatRegistry &reg,
                        const std::string &path);

} // namespace unistc

#endif // UNISTC_OBS_METRICS_EXPORT_HH
