/**
 * @file
 * ResultLog: accumulates every RunResult a run produces so it can be
 * exported as machine-readable JSON next to the printed tables
 * (moved out of bench/bench_common.hh when the sweep engine became
 * the src/driver/ library). Set UNISTC_BENCH_JSON=out.json to get an
 * automatic dump at exit from the process-default log. record() is
 * mutex-guarded so sweep workers may append concurrently; entries()
 * / dumpJson() are for after the run settles. Every record is
 * additionally mirrored into the results warehouse when
 * UNISTC_WAREHOUSE_DIR is set (warehouse/sink.hh) — same rows, same
 * order, incrementally flushed so a crashed run keeps its prefix.
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

/** Run-results accumulator + UNISTC_BENCH_JSON / warehouse bridge. */
class ResultLog
{
  public:
    using Entry = BenchJsonEntry;

    /**
     * One engine pass recorded by runKernelLineup(): the per-layer
     * counters of a single-pass multi-architecture run. The JSON
     * dump gains an "engine" array when any were recorded. The
     * counters are deterministic, so the dump stays byte-identical
     * across --jobs worker counts.
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
     * Write all recorded entries as schema-versioned JSON, through
     * the shared serializer (obs/bench_json.hh) so this dump and
     * `unistc_query export-bench` agree byte for byte.
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
