#include "driver/driver_session.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define UNISTC_DRIVER_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define UNISTC_DRIVER_POSIX 0
#endif

#include "cache/matrix_cache.hh"
#include "common/logging.hh"
#include "driver/tmpdir.hh"
#include "exec/shard_plan.hh"
#include "exec/shard_supervisor.hh"
#include "obs/trace.hh"
#include "warehouse/sink.hh"

namespace unistc
{
namespace driver
{

ScopedPlanQuiet::ScopedPlanQuiet() : savedLevel_(logLevel())
{
    if (savedLevel_ < LogLevel::Error)
        setLogLevel(LogLevel::Error);
#if UNISTC_DRIVER_POSIX
    std::fflush(stdout);
    std::cout.flush();
    savedFd_ = ::dup(STDOUT_FILENO);
    const int nul = ::open("/dev/null", O_WRONLY);
    if (nul >= 0) {
        ::dup2(nul, STDOUT_FILENO);
        ::close(nul);
    }
#endif
}

ScopedPlanQuiet::~ScopedPlanQuiet()
{
#if UNISTC_DRIVER_POSIX
    std::fflush(stdout);
    std::cout.flush();
    if (savedFd_ >= 0) {
        ::dup2(savedFd_, STDOUT_FILENO);
        ::close(savedFd_);
    }
#endif
    setLogLevel(savedLevel_);
}

void
logCacheSummary()
{
    const MatrixCache &cache = MatrixCache::global();
    if (!cache.enabled())
        return;
    const CacheCounters c = cache.counters();
    UNISTC_INFORM("matrix cache (", cache.dir(), "): ", c.hits,
                  " hit(s), ", c.misses, " miss(es), ", c.bytesRead,
                  " B read, ", c.bytesWritten, " B written");
}

namespace
{

/**
 * Cache flags override the UNISTC_CACHE_DIR / UNISTC_CACHE env
 * configuration; the driver applies them before the body runs so
 * generated matrices go through the cache.
 */
void
applyCacheFlags(const SweepRequest &req)
{
    std::string dir = req.cacheDir;
    if (dir.empty()) {
        if (const char *env = std::getenv("UNISTC_CACHE_DIR"))
            dir = env;
    }
    if (req.cacheMode != CacheMode::Off && dir.empty()) {
        UNISTC_FATAL("--cache=", toString(req.cacheMode),
                     " needs --cache-dir or UNISTC_CACHE_DIR");
    }
    MatrixCache::global().configure(
        req.cacheMode == CacheMode::Off ? "" : dir, req.cacheMode);
}

/** Restore the previous current() context on scope exit. */
class ScopedCurrentContext
{
  public:
    explicit ScopedCurrentContext(ExecutionContext &ctx)
        : previous_(ExecutionContext::makeCurrent(&ctx))
    {
    }

    ~ScopedCurrentContext()
    {
        ExecutionContext::makeCurrent(previous_);
    }

    ScopedCurrentContext(const ScopedCurrentContext &) = delete;
    ScopedCurrentContext &
    operator=(const ScopedCurrentContext &) = delete;

  private:
    ExecutionContext *previous_;
};

} // namespace

int
DriverSession::run(const SweepRequest &req, int argc, char **argv,
                   const Body &body)
{
    ScopedCurrentContext scope(ctx_);
    // A long-lived context (tests) may run several requests back to
    // back; stale per-run session state must not leak into this one.
    ctx_.beginRun();
    if (req.logLevelSet)
        setLogLevel(req.logLevel);
#if UNISTC_DRIVER_POSIX
    // --smoke: propagate the tiny-corpus environment before the body
    // runs, so corpus builders (and child phases) all see it.
    // Existing environment settings win.
    if (req.smoke) {
        ::setenv("UNISTC_BENCH_QUICK", "1", 0);
        ::setenv("UNISTC_CORPUS_CLAMP", "2", 0);
    }
#endif
    if (req.cacheFlagged)
        applyCacheFlags(req);

#if UNISTC_DRIVER_POSIX
    // Worker check first: supervisor children inherit --shards K and
    // add --shard i, which must win over the supervisor role.
    if (req.shard >= 0)
        return runShardWorker(req, argc, argv, body);
#else
    if (req.shard >= 0)
        UNISTC_FATAL("--shard needs a POSIX host (fork/exec)");
    if (req.shards > 1)
        UNISTC_WARN("--shards needs a POSIX host (fork/exec); "
                    "running single-process");
#endif
    // Warehouse sink (off unless UNISTC_WAREHOUSE_DIR): opened before
    // the body so rows stream out as they are recorded.
    warehouse::BenchSink::instance().configure(argc, argv);
    if (!req.resumePath.empty())
        ctx_.checkpoints().configure(req.resumePath);
#if UNISTC_DRIVER_POSIX
    if (req.shards > 1) {
        // Sharding replaces --jobs: isolation already comes from the
        // worker processes, and the serve pass must stay serial for
        // byte-identical output.
        return runShardSupervisor(req, argc, argv, body);
    }
#endif

#if !UNISTC_DRIVER_POSIX
    if (req.jobs > 1)
        UNISTC_WARN("--jobs needs POSIX fd redirection; running "
                    "serially");
    const int rc = body(argc, argv);
    logCacheSummary();
    return rc;
#else
    // A plan/replay double traversal is needed for parallelism and
    // for per-job trace spans — a traced run uses it even at
    // --jobs 1 so the trace has the same structure for any N.
    const bool usePlanPass =
        req.jobs > 1 || req.traceJobCapacity > 0;
    if (!usePlanPass) {
        const int rc = body(argc, argv);
        logCacheSummary();
        return rc;
    }
    ctx_.sweep().startPlan(req);
    int rc;
    {
        ScopedPlanQuiet quiet;
        ctx_.setReportingPass(false);
        rc = body(argc, argv);
        ctx_.setReportingPass(true);
    }
    if (rc != 0)
        return rc;
    ctx_.sweep().startReplay();
    ctx_.checkpoints().resetCursor();
    rc = body(argc, argv);
    ctx_.sweep().finish();
    logCacheSummary();
    return rc;
#endif
}

#if UNISTC_DRIVER_POSIX

int
DriverSession::runShardWorker(const SweepRequest &req, int argc,
                              char **argv, const Body &body)
{
    if (Status st = validateShardArgs(req.shards, req.shard);
        !st.ok()) {
        UNISTC_FATAL("--shard: ", st.message());
    }
    // Workers must not clobber the supervisor's JSON dump or open
    // their own warehouse runs.
    ::unsetenv("UNISTC_BENCH_JSON");
    ::unsetenv("UNISTC_WAREHOUSE_DIR");
    if (!req.resumePath.empty())
        ctx_.checkpoints().configureReadOnly(req.resumePath);
    std::string out = req.shardOut;
    if (out.empty())
        out = "shard_" + std::to_string(req.shard) + ".manifest";
    ctx_.shard().startWorker(req.shard, req.shards, out);
    ScopedPlanQuiet quiet;
    ctx_.setReportingPass(false);
    return body(argc, argv);
}

int
DriverSession::runShardSupervisor(const SweepRequest &req, int argc,
                                  char **argv, const Body &body)
{
    // Manifest directory: explicit flag > next to the --resume file >
    // a fresh temp dir (torn down again after a clean run).
    std::string dir = req.shardDir;
    bool tempDir = false;
    if (dir.empty() && !req.resumePath.empty())
        dir = req.resumePath + ".shards";
    if (dir.empty()) {
        // $TMPDIR-aware: sandboxed CI runners mount /tmp read-only
        // and point TMPDIR at a writable scratch root.
        Result<std::string> made = makeTempDir("unistc-shards-");
        if (!made.ok())
            UNISTC_FATAL("--shards: ", made.status().message());
        dir = std::move(made).value();
        tempDir = true;
    } else if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
        UNISTC_FATAL("--shards: cannot create '", dir, "': ",
                     std::strerror(errno));
    }

    std::vector<std::string> manifests;
    std::vector<ShardProcess> procs(
        static_cast<std::size_t>(req.shards));
    for (int s = 0; s < req.shards; ++s) {
        manifests.push_back(dir + "/shard_" + std::to_string(s) +
                            ".manifest");
        ShardProcess &proc = procs[static_cast<std::size_t>(s)];
        proc.argv.reserve(static_cast<std::size_t>(argc) + 4);
        for (int i = 0; i < argc; ++i)
            proc.argv.emplace_back(argv[i]);
        proc.argv.push_back("--shard");
        proc.argv.push_back(std::to_string(s));
        proc.argv.push_back("--shard-out");
        proc.argv.push_back(manifests.back());
    }

    ShardPolicy policy;
    policy.maxShardSeconds = req.shardMaxSeconds;
    policy.heartbeatSeconds = req.shardHeartbeatSeconds;
    policy.maxRetries = req.shardRetries;
    policy.backoffSeconds = req.shardBackoffSeconds;
    policy.quarantine = !req.shardStrict;
    // The supervisor's lifecycle events (spawn / kill / retry /
    // quarantine instants) stand in for per-job trace spans — the
    // jobs ran in other processes.
    std::unique_ptr<TraceSink> trace;
    if (req.traceJobCapacity > 0)
        trace = std::make_unique<TraceSink>(req.traceJobCapacity);
    ShardSupervisor supervisor(policy);
    Result<std::vector<ShardOutcome>> run =
        supervisor.run(procs, trace.get());
    if (!run.ok())
        UNISTC_FATAL("--shards: ", run.status().message());
    const std::vector<ShardOutcome> outcomes = std::move(run).value();

    std::vector<ShardManifest> loaded;
    std::vector<bool> quarantined(
        static_cast<std::size_t>(req.shards), false);
    bool anyQuarantined = false;
    for (int s = 0; s < req.shards; ++s) {
        Result<ShardManifest> m = ShardManifest::load(
            manifests[static_cast<std::size_t>(s)]);
        if (!m.ok()) {
            UNISTC_FATAL("--shards: cannot load '",
                         manifests[static_cast<std::size_t>(s)],
                         "': ", m.status().message());
        }
        loaded.push_back(std::move(m).value());
        if (outcomes[static_cast<std::size_t>(s)].quarantined) {
            quarantined[static_cast<std::size_t>(s)] = true;
            anyQuarantined = true;
            UNISTC_WARN(
                "shard ", s, " quarantined (",
                outcomes[static_cast<std::size_t>(s)].error, "); ",
                loaded.back().size(), " durably completed unit(s) ",
                "kept, its remaining units report zeroed results");
        }
    }
    ShardPlan plan;
    plan.shards = req.shards;
    Result<ShardMergeView> view = ShardMergeView::merge(loaded, plan);
    if (!view.ok())
        UNISTC_FATAL("--shards: ", view.status().message());
    ctx_.shard().startServe(req.shards, std::move(view).value(),
                            quarantined);
    ctx_.setSupervisorTrace(trace.get());
    ctx_.setShardSummary(req.shards, supervisor.counters());

    const int rc = body(argc, argv);

    ctx_.setSupervisorTrace(nullptr);
    const ShardRecoveryCounters &sc = supervisor.counters();
    warehouse::BenchSink::instance().noteShards(req.shards, sc);
    UNISTC_INFORM("shards: ", sc.completed, "/", req.shards,
                  " completed, ", sc.spawned, " attempt(s), ",
                  sc.retried, " retried, ",
                  sc.killedWallClock + sc.killedHeartbeat,
                  " killed, ", sc.crashed, " crashed, ",
                  sc.quarantined, " quarantined, ", sc.heartbeats,
                  " heartbeat(s)");
    if (rc == 0 && tempDir && !anyQuarantined) {
        for (const std::string &m : manifests)
            std::remove(m.c_str());
        ::rmdir(dir.c_str());
    } else if (anyQuarantined) {
        UNISTC_WARN("shard manifests kept in '", dir,
                    "' (rerun with the same --resume/--shard-dir to ",
                    "heal the quarantined units)");
    }
    logCacheSummary();
    return rc;
}

#else // !UNISTC_DRIVER_POSIX

int
DriverSession::runShardWorker(const SweepRequest &, int, char **,
                              const Body &)
{
    UNISTC_FATAL("--shard needs a POSIX host (fork/exec)");
}

int
DriverSession::runShardSupervisor(const SweepRequest &, int, char **,
                                  const Body &)
{
    UNISTC_FATAL("--shards needs a POSIX host (fork/exec)");
}

#endif // UNISTC_DRIVER_POSIX

} // namespace driver
} // namespace unistc
