/**
 * @file
 * Serving + env-handling regression suite (docs/SERVING.md):
 *
 *  - the three bugfix satellites of PR 10: UNISTC_WAREHOUSE_FSYNC
 *    validation (warehouse/sink.hh), $TMPDIR-aware scratch paths
 *    (driver/tmpdir.hh), and the warehouse run-id exhaustion error
 *    (warehouse/warehouse.hh);
 *  - the daemon wire codec round trip (driver/wire_codec.hh);
 *  - AdmissionController load-shedding policy and counters;
 *  - ServeCore end to end in-process: a run response byte-identical
 *    to a one-shot simulate_cli execution of the same argv, the
 *    Prepared cache going hot on a repeat request, deterministic
 *    queue-full shedding, and the serve-policy flag refusals;
 *  - BenchSink manual mode: one committed warehouse run per request.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "driver/driver_session.hh"
#include "driver/sweep_request.hh"
#include "driver/tmpdir.hh"
#include "driver/wire_codec.hh"
#include "serve/admission.hh"
#include "serve/serve_core.hh"
#include "serve/sim_service.hh"
#include "warehouse/sink.hh"
#include "warehouse/warehouse.hh"

namespace unistc
{
namespace
{

// ---------------------------------------------------------------
// Satellite: UNISTC_WAREHOUSE_FSYNC validation (warehouse/sink.cc)
// ---------------------------------------------------------------

TEST(FsyncEnv, AcceptsNonNegativeIntegers)
{
    EXPECT_EQ(warehouse::parseFsyncEnv("0", 16), 0);
    EXPECT_EQ(warehouse::parseFsyncEnv("1", 16), 1);
    EXPECT_EQ(warehouse::parseFsyncEnv("512", 16), 512);
}

TEST(FsyncEnv, RejectsGarbageAndKeepsTheFallback)
{
    // The old bare std::atoi turned every one of these into 0 —
    // silently disabling incremental durability.
    EXPECT_EQ(warehouse::parseFsyncEnv("banana", 16), 16);
    EXPECT_EQ(warehouse::parseFsyncEnv("16x", 16), 16);
    EXPECT_EQ(warehouse::parseFsyncEnv("-4", 16), 16);
    EXPECT_EQ(warehouse::parseFsyncEnv("999999999999999999999", 16),
              16);
    EXPECT_EQ(warehouse::parseFsyncEnv("", 16), 16);
    EXPECT_EQ(warehouse::parseFsyncEnv(nullptr, 16), 16);
}

// ---------------------------------------------------------------
// Satellite: $TMPDIR-aware scratch paths (driver/tmpdir.hh)
// ---------------------------------------------------------------

/** Set/unset an env var for one test, restoring the old value. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            had_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool had_ = false;
    std::string old_;
};

TEST(Tmpdir, HonorsTmpdirEnvAndTrimsTrailingSlashes)
{
    Result<std::string> scratch =
        driver::makeTempDir("unistc-test-tmpdir-");
    ASSERT_TRUE(scratch.ok()) << scratch.status().message();
    const std::string root = scratch.value();

    {
        ScopedEnv env("TMPDIR", (root + "///").c_str());
        EXPECT_EQ(driver::tempDir(), root);

        Result<std::string> inner =
            driver::makeTempDir("unistc-test-inner-");
        ASSERT_TRUE(inner.ok()) << inner.status().message();
        EXPECT_EQ(inner.value().rfind(root + "/unistc-test-inner-",
                                      0),
                  0u)
            << inner.value();

        int fd = -1;
        Result<std::string> file =
            driver::makeTempFile("unistc-test-file-", &fd);
        ASSERT_TRUE(file.ok()) << file.status().message();
        EXPECT_EQ(file.value().rfind(root + "/unistc-test-file-", 0),
                  0u)
            << file.value();
        ::close(fd);
        std::remove(file.value().c_str());
    }
    {
        ScopedEnv unset("TMPDIR", nullptr);
        EXPECT_EQ(driver::tempDir(), "/tmp");
    }
    {
        // Empty TMPDIR is "not set", not "the current directory".
        ScopedEnv empty("TMPDIR", "");
        EXPECT_EQ(driver::tempDir(), "/tmp");
    }
}

// ---------------------------------------------------------------
// Satellite: warehouse run-id exhaustion (warehouse/warehouse.cc)
// ---------------------------------------------------------------

TEST(Warehouse, RunIdExhaustionIsATypedError)
{
    Result<std::string> dir =
        driver::makeTempDir("unistc-test-wh-");
    ASSERT_TRUE(dir.ok()) << dir.status().message();
    // Occupy the last slot of the fixed 6-digit id space; the next
    // allocation must fail loudly instead of minting a 7-digit id
    // that every future scan would ignore.
    ASSERT_EQ(::mkdir((dir.value() + "/999999").c_str(), 0755), 0);

    warehouse::RunWriterOptions opt;
    opt.dir = dir.value();
    opt.bench = "serve_tests";
    auto writer = warehouse::RunWriter::open(opt);
    ASSERT_FALSE(writer.ok());
    EXPECT_NE(writer.status().message().find("exhausted"),
              std::string::npos)
        << writer.status().message();
    EXPECT_NE(writer.status().message().find("999999"),
              std::string::npos)
        << writer.status().message();
}

// ---------------------------------------------------------------
// Wire codec (driver/wire_codec.hh)
// ---------------------------------------------------------------

TEST(WireCodec, RequestRoundTrip)
{
    driver::WireRequest req;
    req.id = "r42";
    req.op = "run";
    req.client = "tester";
    req.label = "nightly \"quoted\"";
    req.argv = {"--kernel", "spmv", "--gen", "banded:64,4,0.5"};

    Result<driver::WireRequest> back =
        driver::decodeRequest(driver::encodeRequest(req));
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(back.value().id, req.id);
    EXPECT_EQ(back.value().op, req.op);
    EXPECT_EQ(back.value().client, req.client);
    EXPECT_EQ(back.value().label, req.label);
    EXPECT_EQ(back.value().argv, req.argv);
}

TEST(WireCodec, ResponseRoundTrip)
{
    driver::WireResponse resp;
    resp.id = "r42";
    resp.status = "error";
    resp.exitCode = 3;
    resp.output = "line one\nline two\n";
    resp.error = "it broke";
    resp.counters = {{"robust.serve_accepted", 7},
                     {"robust.serve_completed", 6}};

    Result<driver::WireResponse> back =
        driver::decodeResponse(driver::encodeResponse(resp));
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(back.value().id, resp.id);
    EXPECT_EQ(back.value().status, resp.status);
    EXPECT_EQ(back.value().exitCode, resp.exitCode);
    EXPECT_EQ(back.value().output, resp.output);
    EXPECT_EQ(back.value().error, resp.error);
    EXPECT_EQ(back.value().counters, resp.counters);
}

TEST(WireCodec, RejectsMalformedLines)
{
    EXPECT_FALSE(driver::decodeRequest("not json").ok());
    EXPECT_FALSE(driver::decodeRequest("[1,2,3]").ok());
    // Unknown op: the daemon must not guess.
    EXPECT_FALSE(
        driver::decodeRequest(R"({"id":"x","op":"explode"})").ok());
    // argv must be an array of strings.
    EXPECT_FALSE(driver::decodeRequest(
                     R"({"id":"x","op":"run","argv":"--smoke"})")
                     .ok());
    EXPECT_FALSE(driver::decodeRequest(
                     R"({"id":"x","op":"run","argv":[1,2]})")
                     .ok());
}

// ---------------------------------------------------------------
// Admission control (serve/admission.hh)
// ---------------------------------------------------------------

TEST(Admission, QuotaAndQueueSheddingAreCounted)
{
    serve::ServeLimits limits;
    limits.maxQueue = 4;
    limits.maxInflightPerClient = 1;
    serve::AdmissionController adm(limits);

    EXPECT_TRUE(adm.admit("alice", 0).ok());
    Status quota = adm.admit("alice", 0);
    ASSERT_FALSE(quota.ok());
    EXPECT_NE(quota.message().find("quota"), std::string::npos)
        << quota.message();
    // A different client still fits.
    EXPECT_TRUE(adm.admit("bob", 1).ok());
    // A full queue sheds regardless of client.
    Status full = adm.admit("carol", 4);
    ASSERT_FALSE(full.ok());
    EXPECT_NE(full.message().find("queue full"), std::string::npos)
        << full.message();

    // Retiring alice's request frees her quota slot.
    adm.finish("alice", true);
    EXPECT_TRUE(adm.admit("alice", 0).ok());
    adm.finish("alice", false);
    adm.finish("bob", true);

    const serve::ServeCounters c = adm.counters();
    EXPECT_EQ(c.accepted, 3u);
    EXPECT_EQ(c.completed, 2u);
    EXPECT_EQ(c.failed, 1u);
    EXPECT_EQ(c.rejectedQuota, 1u);
    EXPECT_EQ(c.rejectedQueueFull, 1u);

    const auto map = c.asMap();
    EXPECT_EQ(map.at("robust.serve_accepted"), 3u);
    EXPECT_EQ(map.at("robust.serve_rejected_quota"), 1u);
    EXPECT_EQ(map.at("robust.serve_rejected_queue_full"), 1u);
}

// ---------------------------------------------------------------
// ServeCore (serve/serve_core.hh)
// ---------------------------------------------------------------

/** The canonical tiny request used throughout the ServeCore tests. */
std::vector<std::string>
tinyArgv()
{
    return {"--kernel", "spmv", "--model", "Uni-STC",
            "--gen",    "banded:128,8,0.5"};
}

driver::WireRequest
runRequest(const std::string &id,
           const std::vector<std::string> &argv)
{
    driver::WireRequest req;
    req.id = id;
    req.op = "run";
    req.client = "serve-test";
    req.argv = argv;
    return req;
}

/** Redirect fd 1 into a temp file around @p fn, return the bytes. */
std::string
captureStdout(const std::function<int()> &fn, int *rc)
{
    std::fflush(stdout);
    const int saved = ::dup(1);
    EXPECT_GE(saved, 0);
    int fd = -1;
    Result<std::string> path =
        driver::makeTempFile("unistc-test-capture-", &fd);
    EXPECT_TRUE(path.ok()) << path.status().message();
    EXPECT_GE(::dup2(fd, 1), 0);
    *rc = fn();
    std::fflush(stdout);
    EXPECT_GE(::dup2(saved, 1), 0);
    ::close(saved);
    ::close(fd);
    std::ifstream in(path.value(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.value().c_str());
    return bytes.str();
}

/** One-shot simulate_cli execution of @p argvIn, output captured. */
std::string
oneShotCli(const std::vector<std::string> &argvIn, int *rc)
{
    std::vector<std::string> args = argvIn;
    args.insert(args.begin(), "simulate_cli");
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &a : args)
        argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());

    Result<driver::ParsedCli> parsed = driver::parseSweepCli(
        argc, argv.data(), serve::simulateCliFlags());
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    driver::ParsedCli cli = std::move(parsed).value();
    serve::Experiment ex = serve::makeExperiment(cli);

    return captureStdout(
        [&] {
            driver::DriverSession session;
            return session.run(cli.request, argc, argv.data(),
                               [&ex](int, char **) {
                                   return serve::simulateBody(ex);
                               });
        },
        rc);
}

TEST(ServeCore, PingStatsAndShutdownAnswerInline)
{
    serve::ServeCore core{serve::ServeOptions{}};

    driver::WireRequest ping;
    ping.id = "p";
    ping.op = "ping";
    EXPECT_EQ(core.submit(ping).status, "ok");

    driver::WireRequest stats;
    stats.id = "s";
    stats.op = "stats";
    const driver::WireResponse sresp = core.submit(stats);
    EXPECT_EQ(sresp.status, "ok");
    EXPECT_EQ(sresp.counters.at("robust.serve_accepted"), 0u);

    driver::WireRequest shutdown;
    shutdown.id = "q";
    shutdown.op = "shutdown";
    EXPECT_EQ(core.submit(shutdown).status, "ok");
    EXPECT_TRUE(core.stopRequested());
    // After shutdown new work is shed, not queued.
    const driver::WireResponse late =
        core.submit(runRequest("late", tinyArgv()));
    EXPECT_EQ(late.status, "rejected");
}

TEST(ServeCore, RunResponseIsByteIdenticalToOneShotCli)
{
    int refRc = -1;
    const std::string expected = oneShotCli(tinyArgv(), &refRc);
    ASSERT_EQ(refRc, 0);
    ASSERT_FALSE(expected.empty());

    serve::ServeCore core{serve::ServeOptions{}};
    const driver::WireResponse resp =
        core.submit(runRequest("r1", tinyArgv()));
    EXPECT_EQ(resp.status, "ok") << resp.error;
    EXPECT_EQ(resp.exitCode, 0);
    EXPECT_EQ(resp.output, expected);
}

TEST(ServeCore, SecondIdenticalRequestRunsCacheHot)
{
    serve::ServeCore core{serve::ServeOptions{}};
    const driver::WireResponse first =
        core.submit(runRequest("r1", tinyArgv()));
    ASSERT_EQ(first.status, "ok") << first.error;
    const driver::WireResponse second =
        core.submit(runRequest("r2", tinyArgv()));
    ASSERT_EQ(second.status, "ok") << second.error;

    // Cache-hot must not mean "different": same bytes out.
    EXPECT_EQ(second.output, first.output);

    const auto counters = core.counterSnapshot();
    EXPECT_EQ(counters.at("robust.serve_accepted"), 2u);
    EXPECT_EQ(counters.at("robust.serve_completed"), 2u);
    EXPECT_EQ(counters.at("robust.serve_prepared_misses"), 1u);
    EXPECT_GE(counters.at("robust.serve_prepared_hits"), 1u);
}

TEST(ServeCore, ZeroQueueShedsEveryRunRequest)
{
    serve::ServeOptions opt;
    opt.limits.maxQueue = 0;
    serve::ServeCore core{opt};

    const driver::WireResponse resp =
        core.submit(runRequest("r1", tinyArgv()));
    EXPECT_EQ(resp.status, "rejected");
    EXPECT_NE(resp.error.find("queue full"), std::string::npos)
        << resp.error;
    const auto counters = core.counterSnapshot();
    EXPECT_EQ(counters.at("robust.serve_rejected_queue_full"), 1u);
    EXPECT_EQ(counters.at("robust.serve_accepted"), 0u);
    // Health checks still answer under total overload.
    driver::WireRequest ping;
    ping.id = "p";
    ping.op = "ping";
    EXPECT_EQ(core.submit(ping).status, "ok");
}

TEST(ServeCore, RefusesFlagsTheWireCannotCarry)
{
    serve::ServeCore core{serve::ServeOptions{}};

    std::vector<std::string> sharded = tinyArgv();
    sharded.insert(sharded.end(), {"--shards", "2"});
    const driver::WireResponse resp =
        core.submit(runRequest("r1", sharded));
    EXPECT_EQ(resp.status, "error");
    EXPECT_EQ(resp.exitCode, 1);
    EXPECT_NE(resp.error.find("serve wire"), std::string::npos)
        << resp.error;

    std::vector<std::string> smoke = tinyArgv();
    smoke.push_back("--smoke");
    EXPECT_EQ(core.submit(runRequest("r2", smoke)).status, "error");

    const auto counters = core.counterSnapshot();
    EXPECT_EQ(counters.at("robust.serve_rejected_unsupported"), 2u);
}

TEST(ServeCore, MalformedArgvIsAnErrorNotACrash)
{
    serve::ServeCore core{serve::ServeOptions{}};
    const driver::WireResponse bad = core.submit(
        runRequest("r1", {"--kernel", "spmv", "--bogus-flag"}));
    EXPECT_EQ(bad.status, "error");
    EXPECT_FALSE(bad.error.empty());

    // A bad model *name* parses fine and is admitted; the body's
    // registry lookup fatals, which the executor turns into an error
    // response — counted as a failed run, not a malformed request.
    const driver::WireResponse badModel = core.submit(runRequest(
        "r2", {"--kernel", "spmv", "--model", "NoSuchModel",
               "--gen", "banded:64,4,0.5"}));
    EXPECT_EQ(badModel.status, "error");
    const auto counters = core.counterSnapshot();
    EXPECT_EQ(counters.at("robust.serve_rejected_malformed"), 1u);
    EXPECT_EQ(counters.at("robust.serve_accepted"), 2u);
    EXPECT_EQ(counters.at("robust.serve_failed"), 2u);
    EXPECT_EQ(counters.at("robust.serve_completed"), 0u);
}

TEST(ServeCore, OutOfRangeGenSpecIsAnErrorNotAnAbort)
{
    // generateFromSpec range-checks its fields with fatal(), so a bad
    // size fails this request and the daemon serves the next one.
    serve::ServeCore core{serve::ServeOptions{}};
    const driver::WireResponse bad = core.submit(runRequest(
        "r1", {"--kernel", "spmv", "--gen", "random:-5"}));
    EXPECT_EQ(bad.status, "error");
    EXPECT_NE(bad.error.find("random:-5"), std::string::npos)
        << bad.error;
    const driver::WireResponse next =
        core.submit(runRequest("r2", tinyArgv()));
    EXPECT_EQ(next.status, "ok") << next.error;
}

// ---------------------------------------------------------------
// BenchSink manual mode (warehouse/sink.hh)
// ---------------------------------------------------------------

TEST(ManualSink, OneCommittedWarehouseRunPerRequest)
{
    Result<std::string> dir =
        driver::makeTempDir("unistc-test-manual-wh-");
    ASSERT_TRUE(dir.ok()) << dir.status().message();
    ScopedEnv env("UNISTC_WAREHOUSE_DIR", dir.value().c_str());

    warehouse::BenchSink &sink = warehouse::BenchSink::instance();
    sink.setManual(true);
    // Under manual mode the per-process configure() is a no-op: a
    // DriverSession inside the daemon must not grab a global run.
    sink.configure(0, nullptr);
    EXPECT_FALSE(sink.enabled());

    sink.beginManualRun("unistc_serve", "req-label",
                        {"unistc_serve", "--kernel", "spmv"});
    EXPECT_TRUE(sink.enabled());
    const std::string firstId = sink.runId();
    EXPECT_EQ(firstId, "000001");
    sink.finishManualRun({{"robust.serve_accepted", 1}});
    EXPECT_FALSE(sink.enabled());

    sink.beginManualRun("unistc_serve", "", {"unistc_serve"});
    EXPECT_EQ(sink.runId(), "000002");
    sink.finishManualRun({});
    sink.setManual(false);

    // Both runs committed: COMMIT marker present.
    for (const char *run : {"000001", "000002"}) {
        std::ifstream commit(dir.value() + "/" + run + "/COMMIT");
        EXPECT_TRUE(commit.good()) << run;
    }
    // The commit record carries the per-request label + counters.
    std::ifstream meta(dir.value() + "/000001/META");
    std::ostringstream metaBytes;
    metaBytes << meta.rdbuf();
    EXPECT_NE(metaBytes.str().find("req-label"), std::string::npos);
    EXPECT_NE(metaBytes.str().find("robust.serve_accepted"),
              std::string::npos);
}

} // namespace
} // namespace unistc
