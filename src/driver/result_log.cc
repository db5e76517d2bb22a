#include "driver/result_log.hh"

#include <cstdlib>
#include <fstream>

#include "common/logging.hh"

namespace unistc
{
namespace driver
{

namespace
{

/**
 * The log armed for dump-at-exit. Exactly one per process (the
 * default ExecutionContext's, which is intentionally leaked so the
 * handler can outlive static destruction).
 */
ResultLog *&
dumpTarget()
{
    static ResultLog *target = nullptr;
    return target;
}

} // namespace

ResultLog::ResultLog(bool atexitDump)
{
    if (atexitDump && std::getenv("UNISTC_BENCH_JSON") != nullptr) {
        dumpTarget() = this;
        std::atexit(&ResultLog::dumpAtExit);
    }
}

void
ResultLog::record(Kernel kernel, const std::string &model,
                  const std::string &matrix, const RunResult &result)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({toString(kernel), model, matrix, result});
}

void
ResultLog::recordEngine(Kernel kernel, const std::string &matrix,
                        const PipelineCounters &counters)
{
    std::lock_guard<std::mutex> lock(mu_);
    engineEntries_.push_back({toString(kernel), matrix, counters});
}

void
ResultLog::dumpJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        UNISTC_FATAL("cannot open bench JSON output '", path,
                     "' for writing");
    }
    writeBenchJson(os, entries_, engineEntries_);
}

void
ResultLog::dumpAtExit()
{
    const char *path = std::getenv("UNISTC_BENCH_JSON");
    ResultLog *log = dumpTarget();
    if (path != nullptr && log != nullptr &&
        (!log->entries_.empty() || !log->engineEntries_.empty()))
        log->dumpJson(path);
}

} // namespace driver
} // namespace unistc
