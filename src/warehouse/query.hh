/**
 * @file
 * Analytics over the results warehouse: the trend/drift/slowest-N
 * queries behind unistc_query, plus the regression check
 * (--check-regressions) that compares the latest run against a named
 * baseline using the summary statistics in stattests.hh.
 *
 * Baselines come in two forms: a warehouse run (resolved by id or
 * label) or a committed BENCH_*.json file (bench/baselines/), parsed
 * back into rows by resultRowsFromBenchJson(). Both reduce to
 * std::vector<ResultRow>, so every query works on either.
 */

#ifndef UNISTC_WAREHOUSE_QUERY_HH
#define UNISTC_WAREHOUSE_QUERY_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json_reader.hh"
#include "robust/status.hh"
#include "warehouse/reader.hh"
#include "warehouse/stattests.hh"

namespace unistc
{
namespace warehouse
{

/**
 * Matrix family of a corpus name: the component before '/' for
 * path-style names, the prefix before a trailing "_<index>" for the
 * synthetic suite ("rand_d3_0" -> "rand_d3"), the whole name
 * otherwise ("shipsec1").
 */
std::string matrixFamily(const std::string &matrix);

/**
 * Per-row value of a named metric. Supported: "cycles",
 * "energy" (total pJ), "utilisation", "stalls", "products",
 * "traffic" (total A+B+C element moves). False on unknown names.
 */
bool metricValue(const ResultRow &row, const std::string &metric,
                 double *out);

/** True when larger @p metric values are better (utilisation). */
bool metricHigherIsBetter(const std::string &metric);

/** One run's aggregate position in a longitudinal trend. */
struct TrendPoint
{
    std::string runId;
    std::string time;
    std::string gitSha;
    std::size_t pairs = 0;   ///< Rows matched against the reference.
    double geomeanSpeedup = 1.0; ///< >1: better than the reference.
};

/**
 * Geomean speedup of @p metric over time: every run of @p bench
 * (all benches when empty), paired row-by-row against the EARLIEST
 * such run. Speedup is oriented so >1 always means improvement.
 */
Result<std::vector<TrendPoint>>
geomeanSpeedupTrend(const WarehouseReader &reader,
                    const std::string &bench,
                    const std::string &metric);

/** Utilisation drift of one matrix family across the store. */
struct DriftPoint
{
    std::string family;
    std::string firstRun;
    std::string lastRun;
    double firstUtil = 0.0; ///< Mean utilisation in the first run.
    double lastUtil = 0.0;  ///< Mean utilisation in the last run.
};

/** Per-family mean utilisation, earliest vs latest run. */
Result<std::vector<DriftPoint>>
utilisationDrift(const WarehouseReader &reader,
                 const std::string &bench);

/** The N slowest (kernel, model, matrix) rows of one run. */
std::vector<ResultRow> slowestMatrices(const RunData &run,
                                       std::size_t n);

/** Knobs of the regression decision (see stattests.hh). */
struct RegressionOptions
{
    double ratioThreshold = 1.05; ///< Geomean shift that matters.
    double alpha = 0.05;          ///< One-sided t-test level.
    std::size_t minPairs = 1;     ///< Skip scopes with fewer pairs.
};

enum class Verdict
{
    Ok,
    Improved,
    Regressed,
};

/** One (metric, scope) comparison in a regression report. */
struct MetricCheck
{
    std::string metric;
    std::string scope; ///< "all" or "kernel=<name>".
    PairedSummary summary; ///< Ratios oriented so >1 means worse.
    Verdict verdict = Verdict::Ok;
    std::string worstKey;   ///< Row with the worst ratio.
    double worstRatio = 1.0;
};

struct RegressionReport
{
    std::size_t pairedRows = 0;
    std::size_t baselineOnly = 0; ///< Rows only in the baseline.
    std::size_t currentOnly = 0;  ///< Rows only in the current run.
    std::vector<MetricCheck> checks;

    bool hasRegression() const;
};

/**
 * Compare @p current against @p baseline: cycles, energy and
 * utilisation, overall and per kernel, each judged by
 * significantShift(). Rows pair on (kernel, model, matrix).
 */
RegressionReport checkRegressions(
    const std::vector<ResultRow> &baseline,
    const std::vector<ResultRow> &current,
    const RegressionOptions &opt);

/** Human-readable report; one line per check, worst-first. */
void printRegressionReport(std::ostream &os,
                           const RegressionReport &report,
                           const RegressionOptions &opt);

/**
 * Decode a bench JSON document ("unistc-bench", version <= 2) back
 * into result rows — the committed-baseline read path. Derived stats
 * (utilisation, energy.total) are recomputed, not trusted.
 */
Result<std::vector<ResultRow>>
resultRowsFromBenchJson(const JsonValue &doc,
                        const std::string &label);

/**
 * Serialise a loaded run in the exact UNISTC_BENCH_JSON format
 * (obs/bench_json.hh) — byte-identical to what the producing bench
 * would have written directly.
 */
void exportBenchJson(const RunData &run, std::ostream &os);

} // namespace warehouse
} // namespace unistc

#endif // UNISTC_WAREHOUSE_QUERY_HH
