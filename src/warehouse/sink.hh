/**
 * @file
 * BenchSink: the bridge from a running bench harness to the results
 * warehouse (warehouse.hh). Off by default; UNISTC_WAREHOUSE_DIR
 * turns it on, and the generated main() in bench/bench_common.hh
 * calls configure() before the bench body so every ResultLog record
 * is mirrored into a warehouse run as it happens.
 *
 * The existing UNISTC_BENCH_JSON output is untouched by this sink —
 * both paths serialise through obs/bench_json.hh, which is what
 * keeps `unistc_query export-bench` byte-identical to a direct dump.
 *
 * Environment:
 *   UNISTC_WAREHOUSE_DIR    warehouse root (enables the sink)
 *   UNISTC_WAREHOUSE_LABEL  optional run label (baseline lookup key)
 *   UNISTC_GIT_SHA          source revision recorded in META
 *   UNISTC_WAREHOUSE_FSYNC  rows per fsync batch (default 16;
 *                           0 = fsync only at commit; anything else
 *                           is rejected with a warning)
 */

#ifndef UNISTC_WAREHOUSE_SINK_HH
#define UNISTC_WAREHOUSE_SINK_HH

#include <memory>
#include <mutex>
#include <string>

#include "engine/kernel_pipeline.hh"
#include "sim/result.hh"
#include "warehouse/warehouse.hh"

namespace unistc
{
namespace warehouse
{

/**
 * Parse an UNISTC_WAREHOUSE_FSYNC value: a non-negative integer
 * (0 = fsync only at commit). Garbage, trailing characters, negative
 * or overflowing values warn and return @p fallback — the old bare
 * std::atoi silently turned them into "durability off".
 */
int parseFsyncEnv(const char *text, int fallback);

/** Process-wide warehouse sink for bench harnesses. */
class BenchSink
{
  public:
    static BenchSink &instance();

    /**
     * Read the environment and, when UNISTC_WAREHOUSE_DIR is set,
     * open a run whose commit record captures @p argv, the UNISTC_*
     * environment and the wall-clock start time. Safe to call once
     * per process; failures warn and leave the sink disabled (a
     * broken warehouse must never fail the bench).
     */
    void configure(int argc, char **argv);

    bool enabled() const { return writer_ != nullptr; }

    /** Mirror one ResultLog entry into the run. */
    void record(const std::string &kernel, const std::string &model,
                const std::string &matrix, const RunResult &result);

    /**
     * Mirror one engine pass as an untimed row: its counters are
     * deterministic, so row content is identical across --jobs
     * worker counts and repeat runs (docs/WAREHOUSE.md).
     */
    void recordEngine(const std::string &kernel,
                      const std::string &matrix,
                      const PipelineCounters &counters);

    /**
     * Seal the run: commit.
     * Registered atexit by configure(); idempotent. A crash before
     * this point leaves the incrementally-flushed rows readable.
     */
    void finalize();

    /** Run id of the open run ("" when disabled). */
    std::string runId() const;

  private:
    BenchSink() = default;

    mutable std::mutex mu_;
    bool configured_ = false;
    std::unique_ptr<RunWriter> writer_;
};

} // namespace warehouse
} // namespace unistc

#endif // UNISTC_WAREHOUSE_SINK_HH
