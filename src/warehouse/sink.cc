#include "warehouse/sink.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>

#include "cache/matrix_cache.hh"
#include "common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
extern char **environ;
#define UNISTC_SINK_HAVE_ENVIRON 1
#else
#define UNISTC_SINK_HAVE_ENVIRON 0
#endif

namespace unistc
{
namespace warehouse
{

namespace
{

std::string
isoUtcNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
#if defined(_WIN32)
    gmtime_s(&tm, &now);
#else
    gmtime_r(&now, &tm);
#endif
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

std::string
baseName(const char *argv0)
{
    std::string s = argv0 != nullptr ? argv0 : "bench";
    const std::size_t slash = s.find_last_of("/\\");
    return slash == std::string::npos ? s : s.substr(slash + 1);
}

/** UNISTC_* environment, sorted for a deterministic META. */
std::vector<std::pair<std::string, std::string>>
capturedEnv()
{
    std::vector<std::pair<std::string, std::string>> out;
#if UNISTC_SINK_HAVE_ENVIRON
    for (char **e = environ; e != nullptr && *e != nullptr; ++e) {
        const char *eq = std::strchr(*e, '=');
        if (eq == nullptr)
            continue;
        const std::string key(*e, eq - *e);
        if (key.rfind("UNISTC_", 0) != 0)
            continue;
        out.emplace_back(key, std::string(eq + 1));
    }
    std::sort(out.begin(), out.end());
#endif
    return out;
}

} // namespace

int
parseFsyncEnv(const char *text, int fallback)
{
    if (text == nullptr || *text == '\0')
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE || v < 0 ||
        v > std::numeric_limits<int>::max()) {
        UNISTC_WARN("ignoring bad UNISTC_WAREHOUSE_FSYNC '", text,
                    "' (want a non-negative integer; 0 = fsync only "
                    "at commit); keeping ", fallback);
        return fallback;
    }
    return static_cast<int>(v);
}

BenchSink &
BenchSink::instance()
{
    // Intentionally leaked, like ResultLog: the atexit finalize hook
    // must outlive static destruction.
    static BenchSink *sink = new BenchSink();
    return *sink;
}

void
BenchSink::configure(int argc, char **argv)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (configured_)
        return;
    configured_ = true;
    const char *dir = std::getenv("UNISTC_WAREHOUSE_DIR");
    if (dir == nullptr || *dir == '\0')
        return;

    RunWriterOptions opt;
    opt.dir = dir;
    opt.bench = baseName(argc > 0 ? argv[0] : nullptr);
    if (const char *label = std::getenv("UNISTC_WAREHOUSE_LABEL"))
        opt.label = label;
    if (const char *sha = std::getenv("UNISTC_GIT_SHA"))
        opt.gitSha = sha;
    opt.timeIso = isoUtcNow();
    for (int i = 0; i < argc; ++i)
        opt.argv.emplace_back(argv[i]);
    opt.env = capturedEnv();
    if (const char *fsync = std::getenv("UNISTC_WAREHOUSE_FSYNC"))
        opt.fsyncEvery = parseFsyncEnv(fsync, opt.fsyncEvery);

    auto writer = RunWriter::open(opt);
    if (!writer.ok()) {
        UNISTC_WARN("warehouse sink disabled: ",
                    writer.status().message());
        return;
    }
    writer_ = std::move(writer).value();
    UNISTC_INFORM("warehouse run ", writer_->runId(), " -> ",
                  writer_->runDir());
    std::atexit([] { BenchSink::instance().finalize(); });
}

void
BenchSink::record(const std::string &kernel, const std::string &model,
                  const std::string &matrix, const RunResult &result)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_ == nullptr)
        return;
    ResultRow row;
    row.kernel = kernel;
    row.model = model;
    row.matrix = matrix;
    row.result = result;
    writer_->appendResult(row);
}

void
BenchSink::recordEngine(const std::string &kernel,
                        const std::string &matrix,
                        const PipelineCounters &counters)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_ == nullptr)
        return;
    EngineRow row;
    row.kernel = kernel;
    row.matrix = matrix;
    row.counters = counters;
    writer_->appendEngine(row);
}

void
BenchSink::noteRecovery(const SweepExecutor::RecoveryCounters &rc)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_ == nullptr)
        return;
    writer_->noteCounter("robust.faults_detected", rc.faultsDetected);
    writer_->noteCounter("robust.jobs_retried", rc.jobsRetried);
    writer_->noteCounter("robust.jobs_quarantined",
                         rc.jobsQuarantined);
    writer_->noteCounter("robust.jobs_timed_out", rc.jobsTimedOut);
}

void
BenchSink::finalize()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_ == nullptr)
        return;
    const MatrixCache &cache = MatrixCache::global();
    if (cache.enabled()) {
        const CacheCounters c = cache.counters();
        writer_->noteCounter("cache.hits", c.hits);
        writer_->noteCounter("cache.misses", c.misses);
        writer_->noteCounter("cache.bytesRead", c.bytesRead);
        writer_->noteCounter("cache.bytesWritten", c.bytesWritten);
        writer_->noteCounter("cache.loadFailures", c.loadFailures);
        writer_->noteCounter("cache.storeFailures", c.storeFailures);
    }
    if (Status s = writer_->finalize(); !s.ok())
        UNISTC_WARN("warehouse commit failed: ", s.message());
    writer_.reset();
}

std::string
BenchSink::runId() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return writer_ != nullptr ? writer_->runId() : std::string();
}

} // namespace warehouse
} // namespace unistc
