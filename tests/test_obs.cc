/**
 * @file
 * Observability tests: JSON writer, stat registry (registration and
 * merge), trace sink (span nesting, ring wraparound), the Chrome
 * trace / stats JSON golden checks on a real small SpMV run, the
 * compare() degenerate-ratio guard, log-level filtering, the
 * hardened --gen spec parser, and concurrency hammers on the stat
 * registry and the log level.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "common/logging.hh"
#include "corpus/generators.hh"
#include "obs/json_writer.hh"
#include "obs/metrics_export.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "runner/report.hh"
#include "runner/spmv_runner.hh"
#include "stc/registry.hh"

namespace unistc
{
namespace
{

/**
 * Minimal recursive-descent JSON well-formedness checker — enough to
 * prove the emitted traces and stats are loadable by a real parser
 * without linking one.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() && std::isspace(
                   static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // Closing quote.
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            break;
        }
        if (pos_ >= s_.size() || s_[pos_] != '}')
            return false;
        ++pos_;
        return true;
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            break;
        }
        if (pos_ >= s_.size() || s_[pos_] != ']')
            return false;
        ++pos_;
        return true;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- //
// JsonWriter
// ---------------------------------------------------------------- //

TEST(JsonWriter, EmitsNestedStructures)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("a");
    w.value(std::uint64_t{42});
    w.key("b");
    w.beginArray();
    w.value(1.5);
    w.value(true);
    w.null();
    w.endArray();
    w.key("s");
    w.value("x");
    w.endObject();
    const std::string out = os.str();
    EXPECT_TRUE(JsonChecker(out).valid()) << out;
    EXPECT_NE(out.find("\"a\": 42"), std::string::npos) << out;
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("null"), std::string::npos);
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\te"),
              "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesUseQuotedSentinels)
{
    // The explicit NaN/Inf policy (docs/OBSERVABILITY.md): quoted
    // sentinel strings, mirroring the Histogram "nan" record — the
    // old null encoding conflated all three irrecoverably.
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    w.value(std::numeric_limits<double>::infinity());
    w.value(-std::numeric_limits<double>::infinity());
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.endArray();
    EXPECT_NE(os.str().find("\"inf\""), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("\"-inf\""), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("\"nan\""), std::string::npos)
        << os.str();
    EXPECT_EQ(os.str().find("null"), std::string::npos) << os.str();
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(JsonWriter, DoublesRoundTripShortest)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    w.value(0.1);
    w.value(3.0);
    w.endArray();
    EXPECT_NE(os.str().find("0.1"), std::string::npos) << os.str();
}

TEST(JsonWriter, FormatDoubleRoundTripsBitExact)
{
    // The double serialisation audit: every emitted token must
    // strtod() back to the identical bit pattern, across shortest-
    // form winners and full max_digits10 stragglers alike.
    const double cases[] = {
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        2.0 / 3.0,
        1e-308,                                    // Subnormal edge.
        4.9406564584124654e-324,                   // Min subnormal.
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::epsilon(),
        3.141592653589793,
        6.02214076e23,
        1.0000000000000002,                        // 1.0 + 1 ulp.
        123456789.123456789,
        -9007199254740993.0,                       // 2^53 + 1.
    };
    for (const double v : cases) {
        const std::string s = JsonWriter::formatDouble(v);
        const double back = std::strtod(s.c_str(), nullptr);
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << s << " reparsed to a different bit pattern";
    }
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::quiet_NaN()),
              "nan");
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::infinity()),
              "inf");
    EXPECT_EQ(JsonWriter::formatDouble(
                  -std::numeric_limits<double>::infinity()),
              "-inf");
    // -0.0 keeps its sign bit through the round trip.
    EXPECT_EQ(JsonWriter::formatDouble(-0.0), "-0");
}

// ---------------------------------------------------------------- //
// StatRegistry
// ---------------------------------------------------------------- //

TEST(StatRegistry, RegistersAndReadsBackAllKinds)
{
    StatRegistry reg;
    reg.setCounter("c", 7, "a counter");
    reg.setScalar("s", 2.5);
    reg.setText("t", "hello");
    Histogram h(4, 0.0, 1.0);
    h.add(0.1);
    h.add(0.9);
    reg.setHistogram("h", h);

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.has("c"));
    EXPECT_FALSE(reg.has("missing"));
    EXPECT_EQ(reg.kind("c"), StatKind::Counter);
    EXPECT_EQ(reg.kind("h"), StatKind::Histogram);
    EXPECT_EQ(reg.counter("c"), 7u);
    EXPECT_DOUBLE_EQ(reg.scalar("s"), 2.5);
    EXPECT_EQ(reg.text("t"), "hello");
    EXPECT_EQ(reg.histogram("h").totalCount(), 2u);
    EXPECT_EQ(reg.description("c"), "a counter");
    EXPECT_EQ(reg.description("s"), "");
}

TEST(StatRegistry, NamesAreSorted)
{
    StatRegistry reg;
    reg.setCounter("z.last", 1);
    reg.setCounter("a.first", 2);
    reg.setCounter("m.middle", 3);
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.first");
    EXPECT_EQ(names[1], "m.middle");
    EXPECT_EQ(names[2], "z.last");
}

TEST(StatRegistry, AddCounterAccumulates)
{
    StatRegistry reg;
    reg.addCounter("events", 3);
    reg.addCounter("events", 4);
    EXPECT_EQ(reg.counter("events"), 7u);
}

TEST(StatRegistry, MergeAddsNumericAndKeepsText)
{
    StatRegistry a;
    a.setCounter("n", 10);
    a.setScalar("x", 1.5);
    a.setText("label", "same");

    StatRegistry b;
    b.setCounter("n", 5);
    b.setCounter("only_b", 2);
    b.setScalar("x", 0.5);
    b.setText("label", "same");

    a.merge(b);
    EXPECT_EQ(a.counter("n"), 15u);
    EXPECT_EQ(a.counter("only_b"), 2u);
    EXPECT_DOUBLE_EQ(a.scalar("x"), 2.0);
    EXPECT_EQ(a.text("label"), "same");
}

TEST(StatRegistry, MergeCombinesHistograms)
{
    Histogram h1(4, 0.0, 1.0);
    h1.add(0.1);
    Histogram h2(4, 0.0, 1.0);
    h2.add(0.9);

    StatRegistry a;
    a.setHistogram("h", h1);
    StatRegistry b;
    b.setHistogram("h", h2);
    a.merge(b);
    EXPECT_EQ(a.histogram("h").totalCount(), 2u);
}

TEST(StatRegistry, WriteJsonIsParsable)
{
    StatRegistry reg;
    reg.setCounter("c", 1);
    reg.setScalar("s", 0.25);
    reg.setText("t", "a \"quoted\" label");
    Histogram h(2, 0.0, 1.0);
    h.add(0.7);
    reg.setHistogram("h", h);
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(MetricsExport, RegisterRunResultExportsExpectedKeys)
{
    RunResult res;
    res.recordCycle(16, 8);
    res.recordCycle(16, 16);
    res.tasksT1 = 1;
    res.traffic.readsA = 24;
    res.energy.compute = 3.5;

    StatRegistry reg;
    registerRunResult(reg, res, "m.");
    EXPECT_EQ(reg.counter("m.cycles"), 2u);
    EXPECT_EQ(reg.counter("m.products"), 24u);
    EXPECT_EQ(reg.counter("m.macSlots"), 32u);
    EXPECT_EQ(reg.counter("m.tasksT1"), 1u);
    EXPECT_EQ(reg.counter("m.traffic.readsA"), 24u);
    EXPECT_EQ(reg.counter("m.traffic.totalA"), 24u);
    EXPECT_DOUBLE_EQ(reg.scalar("m.utilisation"), 0.75);
    EXPECT_DOUBLE_EQ(reg.scalar("m.energy.compute"), 3.5);
    EXPECT_DOUBLE_EQ(reg.scalar("m.energy.total"), 3.5);
    EXPECT_EQ(reg.kind("m.utilHist"), StatKind::Histogram);
    EXPECT_EQ(reg.histogram("m.utilHist").totalCount(), 2u);
}

TEST(StatRegistry, HistogramJsonCarriesNanTallyOnlyWhenPresent)
{
    // NaN-free histograms must serialise byte-identically to before
    // the NaN tally existed; a non-zero tally adds an explicit key.
    StatRegistry reg;
    Histogram clean(2, 0.0, 1.0);
    clean.add(0.3);
    reg.setHistogram("h", clean);
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_EQ(os.str().find("\"nan\""), std::string::npos);

    Histogram dirty(2, 0.0, 1.0);
    dirty.add(std::nan(""), 5);
    reg.setHistogram("h", dirty);
    std::ostringstream os2;
    reg.writeJson(os2);
    EXPECT_NE(os2.str().find("\"nan\": 5"), std::string::npos);
    EXPECT_TRUE(JsonChecker(os2.str()).valid()) << os2.str();
}

TEST(MetricsExport, StatsJsonEnvelopeParsesWithSchema)
{
    StatRegistry reg;
    reg.setCounter("cycles", 123);
    std::ostringstream os;
    writeStatsJson(reg, os);
    const std::string out = os.str();
    EXPECT_TRUE(JsonChecker(out).valid()) << out;
    EXPECT_NE(out.find("\"schema\": \"unistc-stats\""),
              std::string::npos);
    EXPECT_NE(out.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"cycles\": 123"), std::string::npos);
}

// ---------------------------------------------------------------- //
// TraceSink
// ---------------------------------------------------------------- //

TEST(TraceSink, CompleteEventRoundTrips)
{
    TraceSink sink(16);
    sink.complete(TraceTrack::Sdpu, "seg", 10, 5);
    const auto ev = sink.events();
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].phase, 'X');
    EXPECT_EQ(ev[0].tid, static_cast<int>(TraceTrack::Sdpu));
    EXPECT_EQ(ev[0].ts, 10u);
    EXPECT_EQ(ev[0].dur, 5u);
    EXPECT_EQ(ev[0].name, "seg");
}

TEST(TraceSink, SpansNestPerTrack)
{
    TraceSink sink(16);
    sink.begin(TraceTrack::Runner, "outer", 0);
    sink.begin(TraceTrack::Runner, "inner", 2);
    EXPECT_EQ(sink.size(), 0u); // A span is recorded when it ends.
    sink.end(TraceTrack::Runner, 5); // Closes "inner".
    sink.end(TraceTrack::Runner, 9); // Closes "outer".
    EXPECT_EQ(sink.unbalanced(), 0u);

    const auto ev = sink.events();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].name, "inner");
    EXPECT_EQ(ev[0].ts, 2u);
    EXPECT_EQ(ev[0].dur, 3u);
    EXPECT_EQ(ev[1].name, "outer");
    EXPECT_EQ(ev[1].ts, 0u);
    EXPECT_EQ(ev[1].dur, 9u);
}

TEST(TraceSink, UnbalancedEndIsCountedNotRecorded)
{
    TraceSink sink(16);
    sink.end(TraceTrack::Tms, 4);
    EXPECT_EQ(sink.unbalanced(), 1u);
    EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, RingOverwritesOldestAndCountsDrops)
{
    TraceSink sink(4);
    for (int i = 0; i < 10; ++i) {
        std::string name = "e";
        name += std::to_string(i);
        sink.instant(TraceTrack::Dpg, name, static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.recorded(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);

    // Oldest-first view holds the newest four events.
    const auto ev = sink.events();
    ASSERT_EQ(ev.size(), 4u);
    EXPECT_EQ(ev[0].name, "e6");
    EXPECT_EQ(ev[3].name, "e9");
}

TEST(TraceSink, DisabledSinkRecordsNothing)
{
    TraceSink sink(16);
    sink.setEnabled(false);
    sink.instant(TraceTrack::Tms, "hidden", 1);
    UNISTC_TRACE_INSTANT(&sink, TraceTrack::Tms, "also hidden", 2);
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_FALSE(UNISTC_TRACE_ACTIVE(&sink));
    TraceSink *null_sink = nullptr;
    EXPECT_FALSE(UNISTC_TRACE_ACTIVE(null_sink));
}

TEST(TraceSink, ProcessSwitchTagsSubsequentEvents)
{
    TraceSink sink(16);
    sink.setProcess(0, "model-a");
    sink.instant(TraceTrack::Tms, "a", 0);
    sink.setProcess(1, "model-b");
    sink.instant(TraceTrack::Tms, "b", 1);
    const auto ev = sink.events();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].pid, 0);
    EXPECT_EQ(ev[1].pid, 1);
}

// ---------------------------------------------------------------- //
// Golden run: small SpMV on Uni-STC
// ---------------------------------------------------------------- //

TEST(ObsGolden, SpmvTraceIsValidChromeJsonWithPipelineSpans)
{
    const CsrMatrix a = genBanded(96, 6, 0.5, 3);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    const auto model = makeStcModel("Uni-STC", MachineConfig::fp64());

    TraceSink sink;
    sink.setProcess(0, "Uni-STC");
    const RunResult res = runSpmv(*model, bbc, EnergyModel(), &sink);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(sink.size(), 0u);
    EXPECT_EQ(sink.unbalanced(), 0u);

    std::ostringstream os;
    sink.writeChromeTrace(os);
    const std::string out = os.str();
    EXPECT_TRUE(JsonChecker(out).valid()) << out.substr(0, 400);

    // The pipeline stages must all appear: runner issue, TMS T3
    // generation, DPG expansion and SDPU segment execution.
    EXPECT_NE(out.find("\"SpMV\""), std::string::npos);
    EXPECT_NE(out.find("T3 gen"), std::string::npos);
    EXPECT_NE(out.find("T4 expand"), std::string::npos);
    EXPECT_NE(out.find("segments MV"), std::string::npos);
    // Metadata: process and per-track thread names.
    EXPECT_NE(out.find("process_name"), std::string::npos);
    EXPECT_NE(out.find("Uni-STC"), std::string::npos);
    EXPECT_NE(out.find(toString(TraceTrack::Tms)), std::string::npos);
    EXPECT_NE(out.find(toString(TraceTrack::Sdpu)), std::string::npos);
}

TEST(ObsGolden, SpmvStatsJsonMatchesRunResult)
{
    const CsrMatrix a = genBanded(96, 6, 0.5, 3);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    const auto model = makeStcModel("Uni-STC", MachineConfig::fp64());
    const RunResult res = runSpmv(*model, bbc, EnergyModel());

    StatRegistry reg;
    registerRunResult(reg, res, "models.Uni-STC.");
    std::ostringstream os;
    writeStatsJson(reg, os);
    const std::string out = os.str();
    EXPECT_TRUE(JsonChecker(out).valid()) << out.substr(0, 400);
    EXPECT_NE(out.find("\"models.Uni-STC.cycles\": " +
                       std::to_string(res.cycles)),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"models.Uni-STC.tasksT1\": " +
                       std::to_string(res.tasksT1)),
              std::string::npos);

    // The registry must read back exactly the accumulator values.
    EXPECT_EQ(reg.counter("models.Uni-STC.cycles"), res.cycles);
    EXPECT_EQ(reg.counter("models.Uni-STC.products"), res.products);
    EXPECT_DOUBLE_EQ(reg.scalar("models.Uni-STC.utilisation"),
                     res.utilisation());
    EXPECT_DOUBLE_EQ(reg.scalar("models.Uni-STC.energy.total"),
                     res.energy.total());
}

TEST(ObsGolden, TracedRunMatchesUntracedRun)
{
    const CsrMatrix a = genBanded(96, 6, 0.5, 3);
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    const auto model = makeStcModel("Uni-STC", MachineConfig::fp64());

    const RunResult plain = runSpmv(*model, bbc, EnergyModel());
    TraceSink sink;
    const RunResult traced =
        runSpmv(*model, bbc, EnergyModel(), &sink);

    // Instrumentation must not perturb the simulation.
    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.products, traced.products);
    EXPECT_EQ(plain.tasksT1, traced.tasksT1);
    EXPECT_DOUBLE_EQ(plain.energy.total(), traced.energy.total());
}

// ---------------------------------------------------------------- //
// compare() degenerate-ratio guard
// ---------------------------------------------------------------- //

TEST(Compare, NormalRatiosAreUnchanged)
{
    RunResult base;
    base.cycles = 100;
    base.energy.compute = 10.0;
    RunResult test;
    test.cycles = 50;
    test.energy.compute = 5.0;
    const Comparison c = compare(base, test);
    EXPECT_DOUBLE_EQ(c.speedup, 2.0);
    EXPECT_DOUBLE_EQ(c.energyReduction, 2.0);
    EXPECT_DOUBLE_EQ(c.energyEfficiency, 4.0);
    EXPECT_FALSE(c.degenerate);
}

TEST(Compare, ZeroCycleBaselineIsNeutralAndFlagged)
{
    RunResult base; // All zero.
    RunResult test;
    test.cycles = 50;
    test.energy.compute = 5.0;
    const Comparison c = compare(base, test);
    EXPECT_DOUBLE_EQ(c.speedup, 1.0);
    EXPECT_DOUBLE_EQ(c.energyReduction, 1.0);
    EXPECT_DOUBLE_EQ(c.energyEfficiency, 1.0);
    EXPECT_TRUE(c.degenerate);
    EXPECT_TRUE(std::isfinite(c.speedup));
}

TEST(Compare, ZeroCycleTestIsNeutralAndFlagged)
{
    RunResult base;
    base.cycles = 100;
    base.energy.compute = 10.0;
    RunResult test; // All zero.
    const Comparison c = compare(base, test);
    EXPECT_DOUBLE_EQ(c.speedup, 1.0);
    EXPECT_TRUE(c.degenerate);
}

TEST(Compare, BothZeroIsNeutralAndFlagged)
{
    const Comparison c = compare(RunResult{}, RunResult{});
    EXPECT_DOUBLE_EQ(c.speedup, 1.0);
    EXPECT_DOUBLE_EQ(c.energyEfficiency, 1.0);
    EXPECT_TRUE(c.degenerate);
}

TEST(Compare, DegenerateComparisonDoesNotPoisonRollup)
{
    ComparisonRollup roll;
    RunResult base;
    base.cycles = 100;
    base.energy.compute = 10.0;
    RunResult test;
    test.cycles = 50;
    test.energy.compute = 5.0;
    roll.add(compare(base, test));
    roll.add(compare(RunResult{}, test)); // Degenerate: neutral 1.0.
    EXPECT_TRUE(std::isfinite(roll.speedup.value()));
    EXPECT_NEAR(roll.speedup.value(), std::sqrt(2.0), 1e-12);
}

// ---------------------------------------------------------------- //
// Log levels
// ---------------------------------------------------------------- //

class LogLevelTest : public ::testing::Test
{
  protected:
    void TearDown() override { setLogLevel(LogLevel::Info); }
};

TEST_F(LogLevelTest, ParseAcceptsNamesAndDigits)
{
    LogLevel l = LogLevel::Info;
    EXPECT_TRUE(parseLogLevel("debug", l));
    EXPECT_EQ(l, LogLevel::Debug);
    EXPECT_TRUE(parseLogLevel("WARN", l));
    EXPECT_EQ(l, LogLevel::Warn);
    EXPECT_TRUE(parseLogLevel("warning", l));
    EXPECT_EQ(l, LogLevel::Warn);
    EXPECT_TRUE(parseLogLevel("quiet", l));
    EXPECT_EQ(l, LogLevel::Silent);
    EXPECT_TRUE(parseLogLevel("3", l));
    EXPECT_EQ(l, LogLevel::Error);
    EXPECT_FALSE(parseLogLevel("loud", l));
    EXPECT_FALSE(parseLogLevel("", l));
    EXPECT_FALSE(parseLogLevel("7", l));
}

TEST_F(LogLevelTest, WarnSuppressedAboveWarnLevel)
{
    setLogLevel(LogLevel::Error);
    ::testing::internal::CaptureStderr();
    UNISTC_WARN("should not appear");
    UNISTC_INFORM("nor this");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(LogLevelTest, InfoLevelPrintsWarnAndInform)
{
    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    UNISTC_WARN("visible warning");
    UNISTC_INFORM("visible info");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("visible warning"), std::string::npos);
    EXPECT_NE(err.find("visible info"), std::string::npos);
}

TEST_F(LogLevelTest, WarnLevelDropsInformOnly)
{
    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    UNISTC_WARN("kept");
    UNISTC_INFORM("dropped");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("kept"), std::string::npos);
    EXPECT_EQ(err.find("dropped"), std::string::npos);
}

TEST_F(LogLevelTest, DebugHiddenAtDefaultLevel)
{
    ::testing::internal::CaptureStderr();
    UNISTC_DEBUG("hidden detail");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    setLogLevel(LogLevel::Debug);
    ::testing::internal::CaptureStderr();
    UNISTC_DEBUG("shown detail");
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "shown detail"),
              std::string::npos);
}

// ---------------------------------------------------------------- //
// --gen spec parsing
// ---------------------------------------------------------------- //

TEST(GenerateFromSpec, BuildsEachFamily)
{
    const CsrMatrix banded = generateFromSpec("banded:64,4,0.5");
    EXPECT_EQ(banded.rows(), 64);
    EXPECT_GT(banded.nnz(), 0);

    const CsrMatrix rnd = generateFromSpec("random:32,0.2");
    EXPECT_EQ(rnd.rows(), 32);

    const CsrMatrix pl = generateFromSpec("powerlaw:64,4,2.1");
    EXPECT_EQ(pl.rows(), 64);

    const CsrMatrix st = generateFromSpec("stencil:8");
    EXPECT_EQ(st.rows(), 64); // 8x8 grid.
}

TEST(GenerateFromSpec, DefaultsApplyWhenFieldsOmitted)
{
    const CsrMatrix a = generateFromSpec("banded");
    EXPECT_GT(a.rows(), 0);
    EXPECT_GT(a.nnz(), 0);
}

TEST(GenerateFromSpecDeath, RejectsNonNumericField)
{
    EXPECT_EXIT(generateFromSpec("banded:abc"),
                ::testing::ExitedWithCode(1), "malformed --gen spec");
}

TEST(GenerateFromSpecDeath, RejectsTrailingComma)
{
    EXPECT_EXIT(generateFromSpec("banded:64,"),
                ::testing::ExitedWithCode(1), "malformed --gen spec");
}

TEST(GenerateFromSpecDeath, RejectsTrailingGarbage)
{
    EXPECT_EXIT(generateFromSpec("random:32,0.2xyz"),
                ::testing::ExitedWithCode(1), "malformed --gen spec");
}

TEST(GenerateFromSpecDeath, RejectsUnknownFamily)
{
    EXPECT_EXIT(generateFromSpec("mystery:64"),
                ::testing::ExitedWithCode(1), "unknown generator");
}

TEST(GenerateFromSpecDeath, RejectsSizesThatAreNotPositiveInts)
{
    // Sizes are integers in [1, INT_MAX], checked before any cast;
    // a stencil grid must also keep grid^2 within an int.
    EXPECT_EXIT(generateFromSpec("random:-5"),
                ::testing::ExitedWithCode(1), "'random:-5': n -5 ");
    EXPECT_EXIT(generateFromSpec("powerlaw:-5"),
                ::testing::ExitedWithCode(1), "'powerlaw:-5': n -5 ");
    EXPECT_EXIT(generateFromSpec("random:3e9"),
                ::testing::ExitedWithCode(1), "n 3e\\+09 is not an integer");
    EXPECT_EXIT(generateFromSpec("banded:64.7,4,0.5"),
                ::testing::ExitedWithCode(1), "n 64.7 is not an integer");
    EXPECT_EXIT(generateFromSpec("banded:64,-1"),
                ::testing::ExitedWithCode(1), "half_bandwidth -1 ");
    EXPECT_EXIT(generateFromSpec("stencil:0"),
                ::testing::ExitedWithCode(1), "grid 0 ");
    EXPECT_EXIT(generateFromSpec("stencil:46341"),
                ::testing::ExitedWithCode(1), "grid 46341 ");
}

TEST(GenerateFromSpecDeath, RejectsFractionsAndShapesOutOfDomain)
{
    EXPECT_EXIT(generateFromSpec("random:64,1.5"),
                ::testing::ExitedWithCode(1), "density 1.5 is not in");
    EXPECT_EXIT(generateFromSpec("banded:64,4,-0.1"),
                ::testing::ExitedWithCode(1), "fill -0.1 is not in");
    EXPECT_EXIT(generateFromSpec("powerlaw:64,0"),
                ::testing::ExitedWithCode(1), "avg_degree 0 is not > 0");
    EXPECT_EXIT(generateFromSpec("powerlaw:64,4,1"),
                ::testing::ExitedWithCode(1), "alpha 1 is not > 1");
}

TEST(GenerateFromSpec, AcceptsTheEdgesOfEachDomain)
{
    EXPECT_EQ(generateFromSpec("banded:1,0,0").nnz(), 1);
    EXPECT_EQ(generateFromSpec("random:8,1").nnz(), 64);
    EXPECT_EQ(generateFromSpec("random:8,0").nnz(), 0);
    EXPECT_EQ(generateFromSpec("stencil:1").nnz(), 1);
    // A band or degree wider than the matrix just fills every row.
    EXPECT_EQ(generateFromSpec("banded:16,2147483647,1").nnz(), 256);
    EXPECT_EQ(generateFromSpec("powerlaw:16,1e12,2.1").nnz(), 256);
}

// ---------------------------------------------------------------- //
// Concurrency hammers: the stat registry and the log level are
// mutex- or atomic-guarded. These pass trivially without a race but
// catch one under -fsanitize=thread (the tsan-obs preset).
// ---------------------------------------------------------------- //

/** Run task(t) for every t in [0, tasks) over @p threads threads. */
template <typename Task>
void
runOnThreads(int threads, int tasks, const Task &task)
{
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
        workers.emplace_back([w, threads, tasks, &task] {
            for (int t = w; t < tasks; t += threads)
                task(t);
        });
    }
    for (std::thread &worker : workers)
        worker.join();
}

TEST(ObsThreadSafety, ConcurrentStatRegistryWrites)
{
    StatRegistry reg;
    constexpr int kTasks = 64;
    constexpr int kAddsPerTask = 100;
    runOnThreads(4, kTasks, [&reg](int t) {
        for (int i = 0; i < kAddsPerTask; ++i) {
            reg.addCounter("shared.count", 1);
            reg.setScalar("task." + std::to_string(t % 8),
                          static_cast<double>(i));
        }
    });
    EXPECT_EQ(reg.counter("shared.count"),
              static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
}

TEST(ObsThreadSafety, ConcurrentRegistryMerges)
{
    StatRegistry total;
    runOnThreads(4, 32, [&total](int) {
        StatRegistry shard;
        shard.addCounter("merged.count", 3);
        total.merge(shard);
    });
    EXPECT_EQ(total.counter("merged.count"), 32u * 3u);
}

TEST(ObsThreadSafety, ConcurrentLogLevelAccess)
{
    const LogLevel saved = logLevel();
    runOnThreads(4, 32, [](int t) {
        setLogLevel(t % 2 == 0 ? LogLevel::Warn : LogLevel::Error);
        (void)logLevel();
    });
    setLogLevel(saved);
}

} // namespace
} // namespace unistc
