/**
 * @file
 * Results-warehouse tests: row codec bit-exactness, append/commit
 * atomicity (COMMIT marker semantics), schema-version rejection,
 * truncated-file recovery, concurrent writers and run allocation,
 * the summary statistics behind --check-regressions (hand-computed
 * geomeans, the 2x-slowdown detection requirement of PR 6) and the
 * bench-JSON baseline round trip; UNISTC_WAREHOUSE_FSYNC validation
 * and the run-id exhaustion error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/tmpdir.hh"
#include "obs/json_reader.hh"
#include "warehouse/query.hh"
#include "warehouse/reader.hh"
#include "warehouse/schema.hh"
#include "warehouse/sink.hh"
#include "warehouse/stattests.hh"
#include "warehouse/warehouse.hh"

namespace unistc
{
namespace warehouse
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch warehouse directory per test. */
class WarehouseTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("unistc_wh_test_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name())))
                   .string();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    RunWriterOptions
    options(const std::string &label = "") const
    {
        RunWriterOptions opt;
        opt.dir = dir_;
        opt.bench = "bench_test";
        opt.label = label;
        opt.gitSha = "deadbeef";
        opt.timeIso = "2026-08-09T00:00:00Z";
        opt.argv = {"bench_test", "--smoke"};
        opt.env = {{"UNISTC_SMOKE", "1"}};
        return opt;
    }

    std::string dir_;
};

/** Deterministic, fully-populated result (seed varies every field). */
RunResult
makeResult(std::uint64_t seed)
{
    RunResult r;
    // recordCycle() keeps cycles/products/macSlots/utilHist coupled
    // the same way a real model run does.
    const int macs = 16;
    for (std::uint64_t i = 0; i < 4 + seed % 3; ++i) {
        const int eff = static_cast<int>((seed + 3 * i) % (macs + 1));
        r.recordCycle(macs, eff, static_cast<int>(1 + (seed + i) % 4),
                      static_cast<int>(i % 3));
    }
    r.utilHist.add(std::nan(""), 1 + seed % 2);
    r.tasksT1 = 10 + seed;
    r.tasksT3 = 40 + 2 * seed;
    r.stallCycles = seed % 5;
    r.traffic.readsA = 100 + seed;
    r.traffic.wastedA = seed % 7;
    r.traffic.readsB = 200 + seed;
    r.traffic.wastedB = seed % 3;
    r.traffic.writesC = 50 + seed;
    r.energy.fetchA = 1.25 * static_cast<double>(seed + 1);
    r.energy.fetchB = 0.1 + static_cast<double>(seed) / 3.0;
    r.energy.writeC = 2.5e-3 * static_cast<double>(seed);
    r.energy.schedule = 7.0;
    r.energy.compute = 1e6 + static_cast<double>(seed);
    return r;
}

ResultRow
makeRow(std::uint64_t seed)
{
    ResultRow row;
    row.kernel = (seed % 2 == 0) ? "spmv" : "spmm";
    row.model = (seed % 3 == 0) ? "unistc" : "dstc";
    row.matrix = "rand_d2_" + std::to_string(seed);
    row.result = makeResult(seed);
    return row;
}

EngineRow
makeEngineRow(std::uint64_t seed)
{
    EngineRow row;
    row.kernel = "spmv";
    row.matrix = "rand_d2_" + std::to_string(seed);
    row.counters.tasksGenerated = 100 + seed;
    row.counters.modelsFanout = 4;
    row.counters.peakLiveTasks = 1 + seed % 2;
    row.counters.enumerateSeconds = 0.25 * static_cast<double>(seed);
    row.counters.modelSeconds = 1.5;
    row.timed = seed % 2 == 1;
    return row;
}

/** Bit-exact row equality via the canonical packed encoding. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(packResult(a), packResult(b));
}

TEST(WarehouseSchema, PackUnpackResultRoundTripsBitExact)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const RunResult r = makeResult(seed);
        auto back = unpackResult(packResult(r));
        ASSERT_TRUE(back.ok()) << back.status().message();
        expectSameResult(r, back.value());
        // Spot-check the histogram replay specifically: counts,
        // totals and the NaN tally all survive.
        const RunResult &u = back.value();
        ASSERT_EQ(u.utilHist.numBuckets(), r.utilHist.numBuckets());
        for (int b = 0; b < r.utilHist.numBuckets(); ++b)
            EXPECT_EQ(u.utilHist.bucketCount(b),
                      r.utilHist.bucketCount(b));
        EXPECT_EQ(u.utilHist.totalCount(), r.utilHist.totalCount());
        EXPECT_EQ(u.utilHist.nanCount(), r.utilHist.nanCount());
        EXPECT_EQ(u.cycles, r.cycles);
        EXPECT_EQ(u.traffic.wastedB, r.traffic.wastedB);
        EXPECT_EQ(std::memcmp(&u.energy.compute, &r.energy.compute,
                              sizeof(double)),
                  0);
    }
}

TEST(WarehouseSchema, UnpackRejectsInconsistentHistogram)
{
    std::vector<std::uint64_t> slots = packResult(makeResult(1));
    // Corrupt the declared histogram total so the bucket sum no
    // longer matches; unpack must refuse rather than invent data.
    ASSERT_FALSE(slots.empty());
    // hist_total sits 6 slots from the end (nan, then b0..b3).
    slots[slots.size() - 6] += 1;
    auto back = unpackResult(slots);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), ErrorCode::CorruptData);
}

TEST(WarehouseSchema, PackUnpackEngineRoundTrips)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const EngineRow row = makeEngineRow(seed);
        PipelineCounters c;
        bool timed = false;
        unpackEngine(packEngine(row.counters, row.timed), &c, &timed);
        EXPECT_EQ(packEngine(c, timed),
                  packEngine(row.counters, row.timed));
        EXPECT_EQ(timed, row.timed);
    }
}

TEST(WarehouseSchema, EscapeFieldRoundTrips)
{
    const std::string cases[] = {
        "", "plain", "has%percent", "line\nbreak", "cr\rhere",
        "%\n\r%%",
    };
    for (const std::string &s : cases) {
        const std::string esc = escapeField(s);
        EXPECT_EQ(esc.find('\n'), std::string::npos);
        EXPECT_EQ(esc.find('\r'), std::string::npos);
        auto back = unescapeField(esc);
        ASSERT_TRUE(back.ok()) << back.status().message();
        EXPECT_EQ(back.value(), s);
    }
    EXPECT_FALSE(unescapeField("dangling%").ok());
    EXPECT_FALSE(unescapeField("bad%zz").ok());
}

TEST_F(WarehouseTest, WriteFinalizeReadBack)
{
    std::vector<ResultRow> rows;
    for (std::uint64_t i = 0; i < 5; ++i)
        rows.push_back(makeRow(i));

    auto w = RunWriter::open(options("first"));
    ASSERT_TRUE(w.ok()) << w.status().message();
    auto writer = std::move(w).value();
    for (const ResultRow &r : rows)
        writer->appendResult(r);
    writer->appendEngine(makeEngineRow(0));
    writer->appendEngine(makeEngineRow(1));
    ASSERT_TRUE(writer->finalize().ok());
    const std::string id = writer->runId();
    writer.reset();

    WarehouseReader reader(dir_);
    const auto metas = reader.runs();
    ASSERT_EQ(metas.size(), 1u);
    EXPECT_EQ(metas[0].id, id);
    EXPECT_TRUE(metas[0].committed);
    EXPECT_TRUE(metas[0].hasDeclaredRows);
    EXPECT_EQ(metas[0].declaredResultRows, 5u);
    EXPECT_EQ(metas[0].declaredEngineRows, 2u);
    EXPECT_EQ(metas[0].bench, "bench_test");
    EXPECT_EQ(metas[0].label, "first");
    EXPECT_EQ(metas[0].gitSha, "deadbeef");
    ASSERT_EQ(metas[0].env.size(), 1u);
    EXPECT_EQ(metas[0].env[0].first, "UNISTC_SMOKE");

    auto run = reader.load(id);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run.value().recoveredDrops, 0u);
    ASSERT_EQ(run.value().results.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(run.value().results[i].kernel, rows[i].kernel);
        EXPECT_EQ(run.value().results[i].model, rows[i].model);
        EXPECT_EQ(run.value().results[i].matrix, rows[i].matrix);
        expectSameResult(run.value().results[i].result,
                         rows[i].result);
    }
    ASSERT_EQ(run.value().engine.size(), 2u);
    EXPECT_EQ(run.value().engine[1].counters.tasksGenerated, 101u);
    EXPECT_TRUE(run.value().engine[1].timed);
}

TEST_F(WarehouseTest, UncommittedRunLoadsAsPartial)
{
    // Crash story: a writer that never reaches finalize() must still
    // leave every appended row queryable — just not committed.
    {
        auto w = RunWriter::open(options());
        ASSERT_TRUE(w.ok());
        auto writer = std::move(w).value();
        writer->appendResult(makeRow(0));
        writer->appendResult(makeRow(1));
        // No finalize(): destructor only closes files.
    }
    WarehouseReader reader(dir_);
    const auto metas = reader.runs();
    ASSERT_EQ(metas.size(), 1u);
    EXPECT_FALSE(metas[0].committed);
    EXPECT_FALSE(metas[0].hasDeclaredRows);
    auto run = reader.load(metas[0].id);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run.value().results.size(), 2u);
}

TEST_F(WarehouseTest, MetaSchemaVersionRejected)
{
    auto w = RunWriter::open(options());
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w.value()).finalize().ok());
    const std::string runDir = w.value()->runDir();
    const std::string id = w.value()->runId();

    // Doctor META to claim a future schema; the reader must refuse
    // it (it cannot know how to decode the columns) and runs() must
    // skip it without hiding the rest of the store.
    std::ifstream in(runDir + "/META");
    std::stringstream buf;
    buf << in.rdbuf();
    std::string meta = buf.str();
    const auto pos = meta.find("schema=1");
    ASSERT_NE(pos, std::string::npos);
    meta.replace(pos, 8, "schema=999");
    std::ofstream(runDir + "/META", std::ios::trunc) << meta;

    auto parsed = readRunMeta(runDir, id);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), ErrorCode::FailedPrecondition);
    EXPECT_TRUE(WarehouseReader(dir_).runs().empty());
    EXPECT_FALSE(WarehouseReader(dir_).load(id).ok());
}

TEST_F(WarehouseTest, ColumnHeaderVersionRejected)
{
    auto w = RunWriter::open(options());
    ASSERT_TRUE(w.ok());
    w.value()->appendResult(makeRow(0));
    ASSERT_TRUE((*w.value()).finalize().ok());
    const std::string id = w.value()->runId();

    // Bump the u16 version in one column header past the reader's.
    const std::string col = w.value()->runDir() + "/r_cycles.bin";
    std::FILE *f = std::fopen(col.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const unsigned char future[2] = {0xff, 0x00};
    ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(future, 1, 2, f), 2u);
    std::fclose(f);

    auto run = WarehouseReader(dir_).load(id);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::FailedPrecondition);
}

TEST_F(WarehouseTest, CorruptColumnMagicRejected)
{
    auto w = RunWriter::open(options());
    ASSERT_TRUE(w.ok());
    w.value()->appendResult(makeRow(0));
    ASSERT_TRUE((*w.value()).finalize().ok());
    const std::string id = w.value()->runId();

    const std::string col = w.value()->runDir() + "/r_products.bin";
    std::FILE *f = std::fopen(col.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite("XXXX", 1, 4, f), 4u);
    std::fclose(f);

    auto run = WarehouseReader(dir_).load(id);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::CorruptData);
}

TEST_F(WarehouseTest, TruncatedColumnRecoversPrefix)
{
    auto w = RunWriter::open(options());
    ASSERT_TRUE(w.ok());
    for (std::uint64_t i = 0; i < 4; ++i)
        w.value()->appendResult(makeRow(i));
    ASSERT_TRUE((*w.value()).finalize().ok());
    const std::string id = w.value()->runId();
    const std::string runDir = w.value()->runDir();

    // Tear the cycles column mid-way through the last element: the
    // reader must fall back to the longest consistent prefix (3
    // whole rows) and report the drop.
    const std::string col = runDir + "/r_cycles.bin";
    const auto full = fs::file_size(col);
    fs::resize_file(col, full - 3);

    auto run = WarehouseReader(dir_).load(id);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run.value().results.size(), 3u);
    EXPECT_GE(run.value().recoveredDrops, 1u);
    for (std::size_t i = 0; i < 3; ++i)
        expectSameResult(run.value().results[i].result,
                         makeRow(i).result);
}

TEST_F(WarehouseTest, TruncatedDictDropsDanglingRows)
{
    auto w = RunWriter::open(options());
    ASSERT_TRUE(w.ok());
    w.value()->appendResult(makeRow(0));
    w.value()->appendResult(makeRow(1)); // New matrix + model names.
    ASSERT_TRUE((*w.value()).finalize().ok());
    const std::string id = w.value()->runId();
    const std::string runDir = w.value()->runDir();

    // Drop the dictionary's trailing bytes: row 1's names never made
    // it to disk, so that row must be dropped, not fabricated.
    const std::string dict = runDir + "/strings.dict";
    const auto full = fs::file_size(dict);
    fs::resize_file(dict, full - 4);

    auto run = WarehouseReader(dir_).load(id);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ASSERT_EQ(run.value().results.size(), 1u);
    EXPECT_GE(run.value().recoveredDrops, 1u);
    EXPECT_EQ(run.value().results[0].matrix, "rand_d2_0");
}

TEST_F(WarehouseTest, ConcurrentAppendsAllLand)
{
    auto w = RunWriter::open(options());
    ASSERT_TRUE(w.ok());
    RunWriter &writer = *w.value();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&writer, t] {
            for (int i = 0; i < kPerThread; ++i)
                writer.appendResult(makeRow(
                    static_cast<std::uint64_t>(t * kPerThread + i)));
        });
    }
    for (std::thread &th : pool)
        th.join();
    ASSERT_TRUE(writer.finalize().ok());

    auto run = WarehouseReader(dir_).load(writer.runId());
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run.value().results.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(run.value().recoveredDrops, 0u);
    // Every appended row reads back intact (order is append order,
    // which interleaves across threads — match by matrix name).
    for (const ResultRow &row : run.value().results) {
        const auto us = row.matrix.rfind('_');
        const std::uint64_t seed = std::stoull(row.matrix.substr(us + 1));
        expectSameResult(row.result, makeResult(seed));
    }
}

TEST_F(WarehouseTest, ConcurrentRunAllocationYieldsDistinctIds)
{
    constexpr int kWriters = 6;
    std::vector<std::string> ids(kWriters);
    std::vector<std::thread> pool;
    for (int t = 0; t < kWriters; ++t) {
        pool.emplace_back([this, t, &ids] {
            auto w = RunWriter::open(options());
            ASSERT_TRUE(w.ok()) << w.status().message();
            ids[t] = w.value()->runId();
            ASSERT_TRUE((*w.value()).finalize().ok());
        });
    }
    for (std::thread &th : pool)
        th.join();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(WarehouseReader(dir_).runs().size(),
              static_cast<std::size_t>(kWriters));
}

TEST_F(WarehouseTest, ResolveSelectors)
{
    std::vector<std::string> ids;
    for (int i = 0; i < 3; ++i) {
        auto opt = options(i == 1 ? "golden" : "");
        auto w = RunWriter::open(opt);
        ASSERT_TRUE(w.ok());
        ASSERT_TRUE((*w.value()).finalize().ok());
        ids.push_back(w.value()->runId());
    }
    WarehouseReader reader(dir_);
    auto latest = reader.resolve("latest");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(latest.value(), ids[2]);
    auto byId = reader.resolve(ids[0]);
    ASSERT_TRUE(byId.ok());
    EXPECT_EQ(byId.value(), ids[0]);
    auto byLabel = reader.resolve("golden");
    ASSERT_TRUE(byLabel.ok());
    EXPECT_EQ(byLabel.value(), ids[1]);
    EXPECT_FALSE(reader.resolve("no-such-label").ok());
    EXPECT_FALSE(reader.resolve("latest", "other_bench").ok());
}

TEST(WarehouseStats, SummarizeRatiosMatchesHandComputedGeomean)
{
    // Hand-computed: geomean(2, 0.5, 4) = (2 * 0.5 * 4)^(1/3)
    //              = 4^(1/3) = 1.5874010519681994.
    const PairedSummary s = summarizeRatios({2.0, 0.5, 4.0});
    EXPECT_EQ(s.n, 3u);
    EXPECT_NEAR(s.geomean, std::pow(4.0, 1.0 / 3.0), 1e-12);
    EXPECT_NEAR(s.meanLog,
                (std::log(2.0) + std::log(0.5) + std::log(4.0)) / 3.0,
                1e-12);
    EXPECT_DOUBLE_EQ(s.minRatio, 0.5);
    EXPECT_DOUBLE_EQ(s.maxRatio, 4.0);
    // Non-positive and non-finite ratios carry no signal.
    const PairedSummary t =
        summarizeRatios({1.0, 0.0, -2.0, std::nan(""), 1.0});
    EXPECT_EQ(t.n, 2u);
    EXPECT_DOUBLE_EQ(t.geomean, 1.0);
    EXPECT_DOUBLE_EQ(t.sdLog, 0.0);
}

TEST(WarehouseStats, StudentTMatchesNormalForLargeDf)
{
    for (const double t : {-2.0, -0.5, 0.0, 0.5, 1.0, 2.5}) {
        EXPECT_NEAR(studentTCdf(t, 1e6), normalCdf(t), 1e-4)
            << "t=" << t;
    }
    // Known value: t-CDF at 0 is exactly one half for any df.
    EXPECT_NEAR(studentTCdf(0.0, 3.0), 0.5, 1e-12);
    // Heavier tails than the normal at small df.
    EXPECT_LT(studentTCdf(2.0, 2.0), normalCdf(2.0));
}

TEST(WarehouseStats, SignificantShiftDetectsDeterministic2x)
{
    // The PR-6 acceptance case: a deterministic sim regresses 2x on
    // every pair — zero variance, so the t-test degenerates and the
    // geomean-vs-threshold fallback must still fire.
    const PairedSummary slow =
        summarizeRatios({2.0, 2.0, 2.0, 2.0});
    EXPECT_DOUBLE_EQ(slow.sdLog, 0.0);
    EXPECT_TRUE(significantShift(slow, 1.05, 0.05));
    // ...and identical runs (ratio exactly 1) must never fire.
    const PairedSummary same = summarizeRatios({1.0, 1.0, 1.0});
    EXPECT_FALSE(significantShift(same, 1.05, 0.05));
    // A shift inside the threshold band is noise, not a verdict.
    const PairedSummary tiny =
        summarizeRatios({1.01, 1.01, 1.01});
    EXPECT_FALSE(significantShift(tiny, 1.05, 0.05));
    // Noisy but clearly-shifted samples pass through the t-test.
    const PairedSummary noisy =
        summarizeRatios({1.8, 2.2, 1.9, 2.1, 2.0, 1.95});
    EXPECT_GT(noisy.sdLog, 0.0);
    EXPECT_TRUE(significantShift(noisy, 1.05, 0.05));
}

std::vector<ResultRow>
baselineRows()
{
    std::vector<ResultRow> rows;
    for (std::uint64_t i = 0; i < 6; ++i)
        rows.push_back(makeRow(i));
    return rows;
}

TEST(WarehouseQuery, CheckRegressionsDetects2xSlowdown)
{
    const std::vector<ResultRow> base = baselineRows();
    std::vector<ResultRow> cur = base;
    for (ResultRow &row : cur)
        row.result.cycles *= 2; // Synthetic 2x slowdown.

    RegressionOptions opt;
    const RegressionReport report = checkRegressions(base, cur, opt);
    EXPECT_TRUE(report.hasRegression());
    EXPECT_EQ(report.pairedRows, base.size());
    bool cyclesRegressed = false;
    for (const MetricCheck &c : report.checks) {
        if (c.metric == "cycles" && c.scope == "all") {
            cyclesRegressed = c.verdict == Verdict::Regressed;
            EXPECT_NEAR(c.summary.geomean, 2.0, 1e-9);
        }
        if (c.metric == "energy" && c.scope == "all") {
            EXPECT_EQ(c.verdict, Verdict::Ok);
        }
    }
    EXPECT_TRUE(cyclesRegressed);

    std::ostringstream os;
    printRegressionReport(os, report, opt);
    EXPECT_NE(os.str().find("REGRESSED"), std::string::npos);
    EXPECT_NE(os.str().find("cycles"), std::string::npos);
}

TEST(WarehouseQuery, CheckRegressionsZeroOnIdenticalRuns)
{
    const std::vector<ResultRow> base = baselineRows();
    RegressionOptions opt;
    const RegressionReport report = checkRegressions(base, base, opt);
    EXPECT_FALSE(report.hasRegression());
    EXPECT_EQ(report.baselineOnly, 0u);
    EXPECT_EQ(report.currentOnly, 0u);
    for (const MetricCheck &c : report.checks) {
        EXPECT_EQ(c.verdict, Verdict::Ok) << c.metric;
        EXPECT_DOUBLE_EQ(c.summary.geomean, 1.0) << c.metric;
    }
    std::ostringstream os;
    printRegressionReport(os, report, opt);
    EXPECT_NE(os.str().find("no significant regressions"),
              std::string::npos);
}

TEST(WarehouseQuery, CheckRegressionsFlagsImprovement)
{
    const std::vector<ResultRow> base = baselineRows();
    std::vector<ResultRow> cur = base;
    for (ResultRow &row : cur)
        row.result.cycles /= 2;
    const RegressionReport report =
        checkRegressions(base, cur, RegressionOptions{});
    EXPECT_FALSE(report.hasRegression());
    bool improved = false;
    for (const MetricCheck &c : report.checks)
        if (c.metric == "cycles" && c.scope == "all")
            improved = c.verdict == Verdict::Improved;
    EXPECT_TRUE(improved);
}

TEST(WarehouseQuery, MatrixFamilyNames)
{
    EXPECT_EQ(matrixFamily("rand_d2_0"), "rand_d2");
    EXPECT_EQ(matrixFamily("banded_12"), "banded");
    EXPECT_EQ(matrixFamily("shipsec1"), "shipsec1");
    EXPECT_EQ(matrixFamily("dlmc/transformer/m.smtx"), "dlmc");
    EXPECT_EQ(matrixFamily(""), "");
}

TEST(WarehouseQuery, SlowestMatricesOrdersByCycles)
{
    RunData run;
    for (std::uint64_t i = 0; i < 5; ++i) {
        ResultRow row = makeRow(i);
        row.result.cycles = 100 - 10 * i;
        run.results.push_back(row);
    }
    const auto top = slowestMatrices(run, 3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].result.cycles, 100u);
    EXPECT_EQ(top[1].result.cycles, 90u);
    EXPECT_EQ(top[2].result.cycles, 80u);
    EXPECT_EQ(slowestMatrices(run, 50).size(), 5u);
}

TEST(WarehouseQuery, BenchJsonBaselineRoundTrips)
{
    // The committed-baseline path: warehouse rows -> bench JSON ->
    // parsed back into rows, bit-exact (this is how
    // --check-regressions consumes bench/baselines/BENCH_*.json).
    RunData run;
    for (std::uint64_t i = 0; i < 4; ++i)
        run.results.push_back(makeRow(i));
    run.engine.push_back(makeEngineRow(2));

    std::ostringstream os;
    exportBenchJson(run, os);
    auto doc = parseJson(os.str(), "baseline");
    ASSERT_TRUE(doc.ok()) << doc.status().message();
    auto rows = resultRowsFromBenchJson(doc.value(), "baseline");
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    ASSERT_EQ(rows.value().size(), run.results.size());
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        EXPECT_EQ(rows.value()[i].kernel, run.results[i].kernel);
        EXPECT_EQ(rows.value()[i].matrix, run.results[i].matrix);
        expectSameResult(rows.value()[i].result,
                         run.results[i].result);
    }
    // And a round-tripped baseline compares clean against itself.
    const RegressionReport report = checkRegressions(
        rows.value(), run.results, RegressionOptions{});
    EXPECT_FALSE(report.hasRegression());
    EXPECT_EQ(report.pairedRows, run.results.size());
}

TEST_F(WarehouseTest, TrendAndDriftOverTwoRuns)
{
    // Run 1: baseline. Run 2: everything twice as slow, utilisation
    // halved — trend must report a 0.5x speedup and drift must show
    // the per-family drop.
    for (int pass = 0; pass < 2; ++pass) {
        auto w = RunWriter::open(options());
        ASSERT_TRUE(w.ok());
        for (std::uint64_t i = 0; i < 4; ++i) {
            ResultRow row = makeRow(i);
            row.model = "unistc";
            if (pass == 1)
                row.result.cycles *= 2;
            w.value()->appendResult(row);
        }
        ASSERT_TRUE((*w.value()).finalize().ok());
    }
    WarehouseReader reader(dir_);
    auto trend = geomeanSpeedupTrend(reader, "bench_test", "cycles");
    ASSERT_TRUE(trend.ok()) << trend.status().message();
    ASSERT_EQ(trend.value().size(), 2u);
    EXPECT_NEAR(trend.value()[0].geomeanSpeedup, 1.0, 1e-12);
    EXPECT_NEAR(trend.value()[1].geomeanSpeedup, 0.5, 1e-9);
    EXPECT_EQ(trend.value()[1].pairs, 4u);

    auto drift = utilisationDrift(reader, "bench_test");
    ASSERT_TRUE(drift.ok()) << drift.status().message();
    ASSERT_FALSE(drift.value().empty());
    for (const DriftPoint &d : drift.value()) {
        EXPECT_EQ(d.family, "rand_d2");
        EXPECT_DOUBLE_EQ(d.lastUtil, d.firstUtil);
    }
}

TEST(FsyncEnv, AcceptsNonNegativeIntegers)
{
    EXPECT_EQ(parseFsyncEnv("0", 16), 0);
    EXPECT_EQ(parseFsyncEnv("1", 16), 1);
    EXPECT_EQ(parseFsyncEnv("512", 16), 512);
}

TEST(FsyncEnv, RejectsGarbageAndKeepsTheFallback)
{
    // The old bare std::atoi turned every one of these into 0 —
    // silently disabling incremental durability.
    EXPECT_EQ(parseFsyncEnv("banana", 16), 16);
    EXPECT_EQ(parseFsyncEnv("16x", 16), 16);
    EXPECT_EQ(parseFsyncEnv("-4", 16), 16);
    EXPECT_EQ(parseFsyncEnv("999999999999999999999", 16), 16);
    EXPECT_EQ(parseFsyncEnv("", 16), 16);
    EXPECT_EQ(parseFsyncEnv(nullptr, 16), 16);
}

TEST(Warehouse, RunIdExhaustionIsATypedError)
{
    Result<std::string> dir =
        driver::makeTempDir("unistc-test-wh-");
    ASSERT_TRUE(dir.ok()) << dir.status().message();
    // Occupy the last slot of the fixed 6-digit id space; the next
    // allocation must fail loudly instead of minting a 7-digit id
    // that every future scan would ignore.
    ASSERT_TRUE(fs::create_directory(dir.value() + "/999999"));

    RunWriterOptions opt;
    opt.dir = dir.value();
    opt.bench = "warehouse_tests";
    auto writer = RunWriter::open(opt);
    ASSERT_FALSE(writer.ok());
    EXPECT_NE(writer.status().message().find("exhausted"),
              std::string::npos)
        << writer.status().message();
    EXPECT_NE(writer.status().message().find("999999"),
              std::string::npos)
        << writer.status().message();
    fs::remove_all(dir.value());
}

} // namespace
} // namespace warehouse
} // namespace unistc
