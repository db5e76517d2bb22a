/**
 * @file
 * Results-warehouse writer tests: row codec bit-exactness,
 * append/commit semantics (COMMIT marker), schema-version rejection,
 * truncated-file recovery, concurrent writers and run allocation,
 * and the run-id exhaustion error. WarehouseReader reads each run
 * back as the oracle.
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
#include "warehouse/reader.hh"
#include "warehouse/schema.hh"
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
    options() const
    {
        RunWriterOptions opt;
        opt.dir = dir_;
        opt.bench = "bench_test";
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

    auto w = RunWriter::open(options());
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
