/**
 * @file
 * Execution-driver library tests (src/driver/): the SweepRequest
 * parser shared by every binary, runKernel() routing through an
 * ExecutionContext, DriverSession running its body once (a throwing
 * model fails the run), context reuse across back-to-back runs in
 * one process — the embedding contract the bench singletons could
 * never offer — and $TMPDIR-aware scratch paths (driver/tmpdir.hh).
 * Labeled "driver" so every sanitizer preset runs it (see
 * CMakePresets.json).
 */

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generators.hh"
#include "driver/driver_session.hh"
#include "driver/execution_context.hh"
#include "driver/kernel_run.hh"
#include "driver/sweep_request.hh"
#include "driver/tmpdir.hh"
#include "driver/version.hh"
#include "obs/trace.hh"
#include "runner/spmv_runner.hh"
#include "stc/registry.hh"
#include "throwing_model.hh"

namespace unistc
{
namespace
{

/** argv adapter: parseSweepCli wants mutable char** like main(). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args)
        : strings_(std::move(args))
    {
        strings_.insert(strings_.begin(), "driver_tests");
        for (std::string &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

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

driver::ParsedCli
parseOk(std::vector<std::string> args,
        const std::vector<driver::CliFlag> &extra = {})
{
    Argv a(std::move(args));
    Result<driver::ParsedCli> parsed =
        driver::parseSweepCli(a.argc(), a.argv(), extra);
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    return parsed.ok() ? parsed.value() : driver::ParsedCli();
}

Status
parseError(std::vector<std::string> args,
           const std::vector<driver::CliFlag> &extra = {})
{
    Argv a(std::move(args));
    Result<driver::ParsedCli> parsed =
        driver::parseSweepCli(a.argc(), a.argv(), extra);
    EXPECT_FALSE(parsed.ok());
    return parsed.ok() ? Status() : parsed.status();
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.products, b.products);
    EXPECT_EQ(a.macSlots, b.macSlots);
    EXPECT_EQ(a.tasksT1, b.tasksT1);
    EXPECT_EQ(a.tasksT3, b.tasksT3);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.traffic.totalA(), b.traffic.totalA());
    EXPECT_EQ(a.traffic.writesC, b.traffic.writesC);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

// ---------------------------------------------------------------
// SweepRequest parsing: one parser, every binary.
// ---------------------------------------------------------------

TEST(SweepRequestParse, DefaultsAreSerialAndUnsharded)
{
    const driver::ParsedCli cli = parseOk({});
    EXPECT_FALSE(cli.helpRequested);
    EXPECT_FALSE(cli.versionRequested);
    EXPECT_FALSE(cli.request.quick);
    EXPECT_FALSE(cli.request.smoke);
    EXPECT_FALSE(cli.request.logLevelSet);
    EXPECT_TRUE(cli.extra.empty());
}

TEST(SweepRequestParse, StandardFamilyRoundTrips)
{
    const driver::ParsedCli cli =
        parseOk({"--quick", "--log-level", "warn"});
    const driver::SweepRequest &req = cli.request;
    EXPECT_TRUE(req.quick);
    EXPECT_FALSE(req.smoke);
    EXPECT_TRUE(req.logLevelSet);
    EXPECT_EQ(req.logLevel, LogLevel::Warn);
}

TEST(SweepRequestParse, EqualsFormAndSmokeImpliesQuick)
{
    const driver::ParsedCli cli =
        parseOk({"--smoke", "--log-level=error"});
    EXPECT_TRUE(cli.request.smoke);
    EXPECT_TRUE(cli.request.quick);
    EXPECT_EQ(cli.request.logLevel, LogLevel::Error);
}

TEST(SweepRequestParse, QuickComesFromTheEnvironment)
{
    {
        ScopedEnv unset("UNISTC_BENCH_QUICK", nullptr);
        EXPECT_FALSE(parseOk({}).request.quick);
    }
    ScopedEnv quick("UNISTC_BENCH_QUICK", "1");
    const driver::ParsedCli cli = parseOk({});
    EXPECT_TRUE(cli.request.quick);
    EXPECT_FALSE(cli.request.smoke);
}

TEST(SweepRequestParse, RejectsUnknownOption)
{
    const Status s = parseError({"--frobnicate"});
    EXPECT_NE(s.message().find("unknown option '--frobnicate'"),
              std::string::npos);
    EXPECT_NE(s.message().find("--help"), std::string::npos);
    // Retired options are unknown like any other.
    for (const char *gone : {"--jobs", "--shards", "--resume"}) {
        EXPECT_NE(parseError({gone, "2"}).message().find(
                      "unknown option '" + std::string(gone) + "'"),
                  std::string::npos)
            << gone;
    }
}

TEST(SweepRequestParse, RejectsMissingValueAndBadNumbers)
{
    EXPECT_NE(parseError({"--log-level"}).message().find(
                  "missing a value"),
              std::string::npos);
    EXPECT_NE(parseError({"--log-level", "loud"}).message().find(
                  "unknown --log-level 'loud'"),
              std::string::npos);
    parseError({"--log-level", "-2"});
    parseError({"--log-level", "9"});
    EXPECT_NE(parseError({"--quick=1"}).message().find(
                  "takes no value"),
              std::string::npos);
}

TEST(SweepRequestParse, ExtraFlagsLandInExtraMap)
{
    const std::vector<driver::CliFlag> extra = {
        {"kernel", true, "NAME", "which kernel"},
        {"fast", false, "", "a switch"},
    };
    const driver::ParsedCli cli =
        parseOk({"--kernel", "spmm", "--fast", "--log-level", "warn"},
                extra);
    EXPECT_EQ(cli.extra.at("kernel"), "spmm");
    EXPECT_EQ(cli.extra.at("fast"), "1");
    EXPECT_EQ(cli.extra.count("log-level"), 0u); // standard, not extra
    EXPECT_EQ(cli.request.logLevel, LogLevel::Warn);
}

TEST(SweepRequestParse, UnknownExtraStillRejected)
{
    const std::vector<driver::CliFlag> extra = {
        {"kernel", true, "NAME", "which kernel"}};
    const Status s = parseError({"--kernle", "spmm"}, extra);
    EXPECT_NE(s.message().find("unknown option"), std::string::npos);
}

TEST(SweepRequestParse, HelpAndVersionShortCircuit)
{
    EXPECT_TRUE(parseOk({"--help"}).helpRequested);
    EXPECT_TRUE(parseOk({"-h"}).helpRequested);
    EXPECT_TRUE(parseOk({"--version"}).versionRequested);
    // Even with a malformed tail: the request is best-effort.
    EXPECT_TRUE(parseOk({"--help", "--log-level"}).helpRequested);
}

TEST(SweepCliHelp, ListsExtraFlagsThenStandardFamily)
{
    const std::vector<driver::CliFlag> extra = {
        {"kernel", true, "NAME", "which kernel to simulate"}};
    const std::string text = driver::sweepCliHelp("x", extra);
    const std::size_t kernel_at = text.find("--kernel NAME");
    const std::size_t level_at = text.find("--log-level LEVEL");
    EXPECT_NE(kernel_at, std::string::npos);
    EXPECT_NE(level_at, std::string::npos);
    EXPECT_LT(kernel_at, level_at); // binary flags lead
    EXPECT_NE(text.find("--version"), std::string::npos);
    for (const char *gone :
         {"--jobs", "--resume", "--strict", "--max-job-seconds"})
        EXPECT_EQ(text.find(gone), std::string::npos) << gone;
}

TEST(Version, ReportsRevisionAndSchemaVersions)
{
    const std::string v = driver::versionString("simulate_cli");
    EXPECT_NE(v.find("simulate_cli (unistc) revision "),
              std::string::npos);
    EXPECT_NE(v.find("bench-json"), std::string::npos);
    EXPECT_NE(v.find("warehouse v"), std::string::npos);
    EXPECT_NE(v.find("bbc-container v"), std::string::npos);
}

// ---------------------------------------------------------------
// Kernel runs through an ExecutionContext.
// ---------------------------------------------------------------

/** Install a fresh context for one test body, restore after. */
class ScopedContext
{
  public:
    ScopedContext()
        : previous_(driver::ExecutionContext::makeCurrent(&ctx_))
    {
    }
    ~ScopedContext()
    {
        driver::ExecutionContext::makeCurrent(previous_);
    }
    driver::ExecutionContext &operator*() { return ctx_; }
    driver::ExecutionContext *operator->() { return &ctx_; }

  private:
    driver::ExecutionContext ctx_;
    driver::ExecutionContext *previous_;
};

TEST(DriverKernelRun, SerialRunMatchesInlineExecution)
{
    const driver::Prepared prep("t", genBanded(192, 8, 0.5, 3));
    const MachineConfig cfg = MachineConfig::fp64();
    const auto model = makeStcModel("Uni-STC", cfg);
    const RunResult inline_r = runSpmv(*model, prep.bbc);
    ScopedContext ctx;
    const RunResult driven =
        driver::runKernel(Kernel::SpMV, *model, prep, EnergyModel());
    expectSameResult(inline_r, driven);
}

namespace
{

/** The shared experiment body: 3 models x 1 kernel, like a bench. */
std::vector<RunResult>
runThreeModels()
{
    const driver::Prepared prep("t", genBanded(192, 8, 0.5, 3));
    const MachineConfig cfg = MachineConfig::fp64();
    std::vector<RunResult> out;
    for (const char *name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        out.push_back(
            driver::runKernel(Kernel::SpMV, *model, prep, EnergyModel()));
    }
    return out;
}

} // namespace

TEST(DriverSessionTest, BodyMatchesInlineRuns)
{
    // Baseline: the same body run through a fresh installed context.
    std::vector<RunResult> inline_rs;
    {
        ScopedContext ctx;
        inline_rs = runThreeModels();
    }

    driver::ExecutionContext ctx;
    std::vector<RunResult> driven;
    driver::DriverSession session(ctx);
    Argv argv({});
    const int rc = session.run(driver::SweepRequest(), argv.argc(),
                               argv.argv(), [&driven](int, char **) {
                                   driven = runThreeModels();
                                   return 0;
                               });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(driven.size(), inline_rs.size());
    for (std::size_t i = 0; i < inline_rs.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(inline_rs[i], driven[i]);
    }
}

TEST(DriverSessionTest, BodyRunsOnceInItsContext)
{
    driver::ExecutionContext ctx;
    driver::SweepRequest req;
    req.quick = true;
    driver::DriverSession session(ctx);
    Argv argv({});
    int calls = 0;
    const int rc = session.run(req, argv.argc(), argv.argv(),
                               [&](int, char **) {
                                   ++calls;
                                   EXPECT_EQ(driver::ExecutionContext::
                                                 current(),
                                             &ctx);
                                   EXPECT_TRUE(ctx.request().quick);
                                   runThreeModels();
                                   return 3;
                               });
    // One pass, whose exit code is the run's; the context records
    // each of its three runs once and is uninstalled afterwards.
    EXPECT_EQ(rc, 3);
    EXPECT_EQ(calls, 1);
    EXPECT_NE(driver::ExecutionContext::current(), &ctx);
    EXPECT_EQ(ctx.results().entries().size(), 3u);
}

TEST(DriverSessionTest, LineupMatchesPerModelRuns)
{
    const MachineConfig cfg = MachineConfig::fp64();
    std::vector<StcModelPtr> owned;
    std::vector<const StcModel *> models;
    for (const char *name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        owned.push_back(makeStcModel(name, cfg));
        models.push_back(owned.back().get());
    }

    std::vector<RunResult> per_model;
    {
        ScopedContext ctx;
        per_model = runThreeModels();
    }

    driver::ExecutionContext ctx;
    std::vector<RunResult> driven;
    driver::DriverSession session(ctx);
    Argv argv({});
    const int rc = session.run(
        driver::SweepRequest(), argv.argc(), argv.argv(),
        [&](int, char **) {
            const driver::Prepared prep("t",
                                        genBanded(192, 8, 0.5, 3));
            driven = driver::runKernelLineup(Kernel::SpMV, models,
                                             prep, EnergyModel());
            return 0;
        });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(driven.size(), per_model.size());
    for (std::size_t i = 0; i < per_model.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(per_model[i], driven[i]);
    }
    ASSERT_EQ(ctx.results().engineEntries().size(), 1u);
    EXPECT_EQ(ctx.results().engineEntries()[0].counters.modelsFanout,
              3u);
}

TEST(DriverSessionTest, TracedOneModelLineupKeepsEngineCounters)
{
    // A one-model lineup records the same results and engine entry
    // with and without a trace sink, and the traced run fills it.
    const auto model = makeStcModel("Uni-STC", MachineConfig::fp64());
    const std::vector<const StcModel *> lineup = {model.get()};
    TraceSink sink(4096);
    std::vector<PipelineCounters> seen;
    std::vector<RunResult> results;
    for (TraceSink *trace : {static_cast<TraceSink *>(nullptr), &sink}) {
        SCOPED_TRACE(trace == nullptr ? "untraced" : "traced");
        driver::ExecutionContext ctx;
        driver::DriverSession session(ctx);
        Argv argv({});
        EXPECT_EQ(session.run(driver::SweepRequest(), argv.argc(),
                              argv.argv(),
                              [&](int, char **) {
                                  const driver::Prepared prep(
                                      "t", genBanded(192, 8, 0.5, 3));
                                  results.push_back(
                                      driver::runKernelLineup(
                                          Kernel::SpGEMM, lineup, prep,
                                          EnergyModel(), false, nullptr,
                                          64, {trace})
                                          .front());
                                  return 0;
                              }),
                  0);
        ASSERT_EQ(ctx.results().engineEntries().size(), 1u);
        seen.push_back(ctx.results().engineEntries()[0].counters);
    }
    EXPECT_GT(sink.recorded(), 0u);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_GT(seen[0].tasksGenerated, 0u);
    EXPECT_EQ(seen[0].modelsFanout, 1u);
    EXPECT_EQ(seen[0].peakLiveTasks, 1u);
    EXPECT_EQ(seen[1].tasksGenerated, seen[0].tasksGenerated);
    EXPECT_EQ(seen[1].modelsFanout, seen[0].modelsFanout);
    EXPECT_EQ(seen[1].peakLiveTasks, seen[0].peakLiveTasks);
    expectSameResult(results[0], results[1]);
}

TEST(DriverSessionTest, ContextServesBackToBackSweeps)
{
    driver::ExecutionContext ctx;
    driver::DriverSession session(ctx);
    Argv argv({});

    // Two runs reuse one context: each body sees its own request,
    // both give the same results, and the log keeps both runs.
    driver::SweepRequest req1;
    req1.quick = true;
    std::vector<RunResult> first;
    EXPECT_EQ(session.run(req1, argv.argc(), argv.argv(),
                          [&](int, char **) {
                              EXPECT_TRUE(ctx.request().quick);
                              first = runThreeModels();
                              return 0;
                          }),
              0);

    driver::SweepRequest req2;
    std::vector<RunResult> second;
    EXPECT_EQ(session.run(req2, argv.argc(), argv.argv(),
                          [&](int, char **) {
                              EXPECT_FALSE(ctx.request().quick);
                              second = runThreeModels();
                              return 0;
                          }),
              0);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(first[i], second[i]);
    }
    EXPECT_EQ(ctx.results().entries().size(), 6u);
}

TEST(DriverSessionTest, ThrowingModelFailsTheRun)
{
    // A model that throws leaves the body, and so the run.
    ScopedFatalThrow guard;
    const ThrowingModel model;
    driver::ExecutionContext ctx;
    driver::DriverSession session(ctx);
    Argv argv({});
    try {
        const int rc = session.run(
            driver::SweepRequest(), argv.argc(), argv.argv(),
            [&](int, char **) {
                const driver::Prepared prep("t",
                                            genBanded(192, 8, 0.5, 3));
                driver::runKernel(Kernel::SpMV, model, prep);
                return 0;
            });
        ADD_FAILURE() << "the run returned " << rc;
    } catch (const UnistcError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("block task refused"), std::string::npos)
            << what;
    }
    EXPECT_TRUE(ctx.results().entries().empty());
}

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
    std::filesystem::remove_all(root);
}

} // namespace
} // namespace unistc
