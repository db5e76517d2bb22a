/**
 * @file
 * The bench JSON serialisation (schema "unistc-bench", version 2).
 * Its one producer is ResultLog::dumpJson(), the UNISTC_BENCH_JSON
 * dump at bench exit; the goldens under bench/golden/ pin its bytes.
 */

#ifndef UNISTC_OBS_BENCH_JSON_HH
#define UNISTC_OBS_BENCH_JSON_HH

#include <ostream>
#include <string>
#include <vector>

#include "engine/kernel_pipeline.hh"
#include "sim/result.hh"

namespace unistc
{

/** Bench JSON envelope identity. Bump the version on key changes. */
inline constexpr const char *kBenchSchemaName = "unistc-bench";
inline constexpr int kBenchSchemaVersion = 2;

/** One per-(kernel, model, matrix) record of the "entries" array. */
struct BenchJsonEntry
{
    std::string kernel;
    std::string model;
    std::string matrix;
    RunResult result;
};

/**
 * One engine pass record of the optional "engine" array: the pass's
 * deterministic counters only, so the document stays byte-identical
 * across runs.
 */
struct BenchJsonEngineEntry
{
    std::string kernel;
    std::string matrix;
    PipelineCounters counters;
};

/**
 * Write the whole bench JSON document: schema envelope, "entries"
 * array (stats via registerRunResult), and an "engine" array only
 * when @p engine is non-empty.
 */
void writeBenchJson(std::ostream &os,
                    const std::vector<BenchJsonEntry> &entries,
                    const std::vector<BenchJsonEngineEntry> &engine);

} // namespace unistc

#endif // UNISTC_OBS_BENCH_JSON_HH
