/**
 * @file
 * ResultLog: accumulates every RunResult a run produces so it can be
 * exported as machine-readable JSON next to the printed tables
 * (moved out of bench/bench_common.hh when the sweep engine became
 * the src/driver/ library). Set UNISTC_BENCH_JSON=out.json to get an
 * automatic dump at exit from the process-default log. record() is
 * mutex-guarded so several threads may append concurrently;
 * entries() / dumpJson() are for after the run settles.
 */

#ifndef UNISTC_DRIVER_RESULT_LOG_HH
#define UNISTC_DRIVER_RESULT_LOG_HH

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "obs/bench_json.hh"
#include "runner/report.hh"
#include "sim/result.hh"

namespace unistc
{
namespace driver
{

/** Run-results accumulator and its UNISTC_BENCH_JSON dump. */
class ResultLog
{
  public:
    using Entry = BenchJsonEntry;

    /**
     * One engine pass recorded by runKernelLineup(): the per-layer
     * counters of a single-pass multi-architecture run. The JSON
     * dump gains an "engine" array when any were recorded. The
     * counters are deterministic, so the dump stays byte-identical
     * across runs.
     */
    using EngineEntry = BenchJsonEngineEntry;

    /**
     * @p atexitDump: arm the UNISTC_BENCH_JSON dump-at-exit handler
     * for this log. Only the process-default ExecutionContext's log
     * does (exactly one dump per process, like the legacy singleton).
     */
    explicit ResultLog(bool atexitDump);

    ResultLog(const ResultLog &) = delete;
    ResultLog &operator=(const ResultLog &) = delete;

    void record(Kernel kernel, const std::string &model,
                const std::string &matrix, const RunResult &result);

    void recordEngine(Kernel kernel, const std::string &matrix,
                      const PipelineCounters &counters);

    const std::vector<Entry> &entries() const { return entries_; }

    const std::vector<EngineEntry> &
    engineEntries() const
    {
        return engineEntries_;
    }

    /**
     * Write all recorded entries as schema-versioned JSON through
     * obs/bench_json.hh.
     */
    void dumpJson(const std::string &path) const;

  private:
    static void dumpAtExit();

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
    std::vector<EngineEntry> engineEntries_;
};

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_RESULT_LOG_HH
