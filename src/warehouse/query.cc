#include "warehouse/query.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>

#include "common/logging.hh"
#include "obs/bench_json.hh"

namespace unistc
{
namespace warehouse
{

namespace
{

/** Row identity for pairing across runs. */
std::string
rowKey(const ResultRow &r)
{
    // Names are single-line (warehouse escaping guarantees it), so
    // newline is a safe separator.
    return r.kernel + "\n" + r.model + "\n" + r.matrix;
}

std::string
prettyKey(const ResultRow &r)
{
    return r.kernel + " " + r.model + " " + r.matrix;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

} // namespace

std::string
matrixFamily(const std::string &matrix)
{
    // Path-style names (dlmc corpora): the leading component.
    const std::size_t slash = matrix.find('/');
    if (slash != std::string::npos)
        return matrix.substr(0, slash);
    // Synthetic-suite names are "<family>_<index>" (corpus/suite.cc);
    // strip a trailing all-digit segment. Named real matrices
    // ("shipsec1") are their own family.
    const std::size_t us = matrix.find_last_of('_');
    if (us == std::string::npos || us + 1 >= matrix.size())
        return matrix;
    for (std::size_t i = us + 1; i < matrix.size(); ++i) {
        if (matrix[i] < '0' || matrix[i] > '9')
            return matrix;
    }
    return matrix.substr(0, us);
}

bool
metricValue(const ResultRow &row, const std::string &metric,
            double *out)
{
    const RunResult &r = row.result;
    if (metric == "cycles") {
        *out = static_cast<double>(r.cycles);
    } else if (metric == "energy") {
        *out = r.energy.total();
    } else if (metric == "utilisation") {
        *out = r.utilisation();
    } else if (metric == "stalls") {
        *out = static_cast<double>(r.stallCycles);
    } else if (metric == "products") {
        *out = static_cast<double>(r.products);
    } else if (metric == "traffic") {
        *out = static_cast<double>(r.traffic.totalA() +
                                   r.traffic.totalB() +
                                   r.traffic.writesC);
    } else {
        return false;
    }
    return true;
}

bool
metricHigherIsBetter(const std::string &metric)
{
    return metric == "utilisation" || metric == "products";
}

Result<std::vector<TrendPoint>>
geomeanSpeedupTrend(const WarehouseReader &reader,
                    const std::string &bench,
                    const std::string &metric)
{
    using R = Result<std::vector<TrendPoint>>;
    {
        double probeOut = 0.0;
        ResultRow probe;
        if (!metricValue(probe, metric, &probeOut))
            return R(invalidArgument("unknown metric '" + metric +
                                     "'"));
    }
    const bool higherBetter = metricHigherIsBetter(metric);
    std::vector<TrendPoint> out;
    std::map<std::string, double> reference;
    for (const RunMeta &meta : reader.runs()) {
        if (!bench.empty() && meta.bench != bench)
            continue;
        auto run = reader.load(meta.id);
        if (!run.ok()) {
            UNISTC_WARN("trend skips run ", meta.id, ": ",
                        run.status().message());
            continue;
        }
        TrendPoint pt;
        pt.runId = meta.id;
        pt.time = meta.time;
        pt.gitSha = meta.gitSha;
        std::vector<double> speedups;
        for (const ResultRow &row : run.value().results) {
            double v = 0.0;
            metricValue(row, metric, &v);
            if (reference.empty())
                continue; // This IS the reference run.
            const auto it = reference.find(rowKey(row));
            if (it == reference.end())
                continue;
            // Oriented so >1 is always an improvement.
            if (v > 0.0 && it->second > 0.0)
                speedups.push_back(higherBetter ? v / it->second
                                                : it->second / v);
        }
        if (reference.empty()) {
            for (const ResultRow &row : run.value().results) {
                double v = 0.0;
                metricValue(row, metric, &v);
                reference.emplace(rowKey(row), v);
            }
            pt.pairs = run.value().results.size();
            pt.geomeanSpeedup = 1.0; // Reference compares to itself.
        } else {
            const PairedSummary s = summarizeRatios(speedups);
            pt.pairs = s.n;
            pt.geomeanSpeedup = s.geomean;
        }
        out.push_back(std::move(pt));
    }
    if (out.empty()) {
        return R(invalidArgument(
            "no loadable runs" +
            (bench.empty() ? std::string()
                           : " from bench '" + bench + "'")));
    }
    return R(std::move(out));
}

Result<std::vector<DriftPoint>>
utilisationDrift(const WarehouseReader &reader,
                 const std::string &bench)
{
    using R = Result<std::vector<DriftPoint>>;
    std::vector<RunMeta> metas;
    for (RunMeta &m : reader.runs()) {
        if (bench.empty() || m.bench == bench)
            metas.push_back(std::move(m));
    }
    if (metas.empty())
        return R(invalidArgument("no runs to compute drift over"));
    auto first = reader.load(metas.front().id);
    if (!first.ok())
        return R(first.status());
    auto last = reader.load(metas.back().id);
    if (!last.ok())
        return R(last.status());

    struct Accum
    {
        double sum = 0.0;
        std::size_t n = 0;
    };
    const auto familyMeans = [](const RunData &run) {
        std::map<std::string, Accum> acc;
        for (const ResultRow &row : run.results) {
            Accum &a = acc[matrixFamily(row.matrix)];
            a.sum += row.result.utilisation();
            ++a.n;
        }
        return acc;
    };
    const auto firstAcc = familyMeans(first.value());
    const auto lastAcc = familyMeans(last.value());
    std::vector<DriftPoint> out;
    for (const auto &[family, a] : firstAcc) {
        const auto it = lastAcc.find(family);
        if (it == lastAcc.end() || a.n == 0 || it->second.n == 0)
            continue;
        DriftPoint p;
        p.family = family;
        p.firstRun = metas.front().id;
        p.lastRun = metas.back().id;
        p.firstUtil = a.sum / static_cast<double>(a.n);
        p.lastUtil =
            it->second.sum / static_cast<double>(it->second.n);
        out.push_back(std::move(p));
    }
    return R(std::move(out));
}

std::vector<ResultRow>
slowestMatrices(const RunData &run, std::size_t n)
{
    std::vector<ResultRow> rows = run.results;
    std::stable_sort(rows.begin(), rows.end(),
                     [](const ResultRow &a, const ResultRow &b) {
                         return a.result.cycles > b.result.cycles;
                     });
    if (rows.size() > n)
        rows.resize(n);
    return rows;
}

bool
RegressionReport::hasRegression() const
{
    for (const MetricCheck &c : checks) {
        if (c.verdict == Verdict::Regressed)
            return true;
    }
    return false;
}

namespace
{

/** Build one check from worse-oriented ratios. */
MetricCheck
judge(std::string metric, std::string scope,
      const std::vector<double> &worseRatios,
      const std::vector<std::pair<std::string, double>> &keyed,
      const RegressionOptions &opt)
{
    MetricCheck c;
    c.metric = std::move(metric);
    c.scope = std::move(scope);
    c.summary = summarizeRatios(worseRatios);
    for (const auto &[key, ratio] : keyed) {
        if (ratio > c.worstRatio) {
            c.worstRatio = ratio;
            c.worstKey = key;
        }
    }
    if (significantShift(c.summary, opt.ratioThreshold, opt.alpha)) {
        c.verdict = c.summary.meanLog > 0.0 ? Verdict::Regressed
                                            : Verdict::Improved;
    }
    return c;
}

} // namespace

RegressionReport
checkRegressions(const std::vector<ResultRow> &baseline,
                 const std::vector<ResultRow> &current,
                 const RegressionOptions &opt)
{
    RegressionReport report;
    std::map<std::string, const ResultRow *> base;
    for (const ResultRow &row : baseline)
        base.emplace(rowKey(row), &row);

    struct Pair
    {
        const ResultRow *before;
        const ResultRow *after;
    };
    std::vector<Pair> pairs;
    std::map<std::string, bool> matched;
    for (const ResultRow &row : current) {
        const auto it = base.find(rowKey(row));
        if (it == base.end()) {
            ++report.currentOnly;
            continue;
        }
        matched[it->first] = true;
        pairs.push_back({it->second, &row});
    }
    report.pairedRows = pairs.size();
    for (const auto &[key, ptr] : base) {
        if (!matched.count(key))
            ++report.baselineOnly;
    }

    const char *metrics[] = {"cycles", "energy", "utilisation"};
    for (const char *metric : metrics) {
        const bool higherBetter = metricHigherIsBetter(metric);
        std::vector<double> all;
        std::vector<std::pair<std::string, double>> allKeyed;
        std::map<std::string, std::vector<double>> byKernel;
        for (const Pair &p : pairs) {
            double before = 0.0, after = 0.0;
            metricValue(*p.before, metric, &before);
            metricValue(*p.after, metric, &after);
            if (!(before > 0.0) || !(after > 0.0))
                continue; // No signal in a zero sample.
            // Oriented so >1 always means "got worse".
            const double worse = higherBetter ? before / after
                                              : after / before;
            all.push_back(worse);
            allKeyed.emplace_back(prettyKey(*p.after), worse);
            byKernel[p.after->kernel].push_back(worse);
        }
        if (all.size() >= opt.minPairs) {
            report.checks.push_back(
                judge(metric, "all", all, allKeyed, opt));
        }
        // Per-kernel scopes catch a regression in one kernel that
        // the overall geomean would dilute away; cycles only, to
        // keep the report small. Skip when there is just one kernel
        // — the "all" scope already is that kernel.
        if (std::string(metric) == "cycles" && byKernel.size() > 1) {
            for (const auto &[kernel, ratios] : byKernel) {
                if (ratios.size() < opt.minPairs)
                    continue;
                report.checks.push_back(judge(
                    metric, "kernel=" + kernel, ratios, {}, opt));
            }
        }
    }
    return report;
}

void
printRegressionReport(std::ostream &os,
                      const RegressionReport &report,
                      const RegressionOptions &opt)
{
    os << "rows: " << report.pairedRows << " paired, "
       << report.baselineOnly << " baseline-only, "
       << report.currentOnly << " current-only\n";
    os << "thresholds: geomean > " << fmt(opt.ratioThreshold)
       << "x, alpha " << fmt(opt.alpha) << "\n";
    std::vector<const MetricCheck *> order;
    order.reserve(report.checks.size());
    for (const MetricCheck &c : report.checks)
        order.push_back(&c);
    std::stable_sort(order.begin(), order.end(),
                     [](const MetricCheck *a, const MetricCheck *b) {
                         return static_cast<int>(a->verdict) >
                                static_cast<int>(b->verdict);
                     });
    std::size_t regressions = 0;
    for (const MetricCheck *c : order) {
        const char *tag = c->verdict == Verdict::Regressed
                              ? "[REGRESSED]"
                          : c->verdict == Verdict::Improved
                              ? "[improved] "
                              : "[ok]       ";
        if (c->verdict == Verdict::Regressed)
            ++regressions;
        os << "  " << tag << " " << c->metric << " @ " << c->scope
           << ": geomean " << fmt(c->summary.geomean)
           << "x worse-ratio over " << c->summary.n
           << " pair(s), sd(log) " << fmt(c->summary.sdLog);
        if (!c->worstKey.empty()) {
            os << ", worst " << fmt(c->worstRatio) << "x ("
               << c->worstKey << ")";
        }
        os << "\n";
    }
    if (report.checks.empty())
        os << "  (no comparable metric scopes)\n";
    os << (regressions == 0
               ? "verdict: no significant regressions\n"
               : "verdict: " + std::to_string(regressions) +
                     " significant regression(s)\n");
}

Result<std::vector<ResultRow>>
resultRowsFromBenchJson(const JsonValue &doc,
                        const std::string &label)
{
    using R = Result<std::vector<ResultRow>>;
    const auto bad = [&label](const std::string &what) {
        return corruptData(label + ": " + what);
    };
    if (!doc.isObject())
        return R(bad("top level is not an object"));
    const JsonValue *schema = doc.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->string() != kBenchSchemaName) {
        return R(bad("schema is not '" +
                     std::string(kBenchSchemaName) + "'"));
    }
    const JsonValue *version = doc.find("version");
    std::uint64_t ver = 0;
    if (version == nullptr || !version->isNumber() ||
        !version->counterValue(&ver)) {
        return R(bad("missing or malformed version"));
    }
    if (ver > static_cast<std::uint64_t>(kBenchSchemaVersion)) {
        return R(failedPrecondition(
            label + ": written by bench schema version " +
            std::to_string(ver) + "; this reader understands <= " +
            std::to_string(kBenchSchemaVersion)));
    }
    const JsonValue *entries = doc.find("entries");
    if (entries == nullptr || !entries->isArray())
        return R(bad("missing entries array"));

    std::vector<ResultRow> rows;
    rows.reserve(entries->array().size());
    for (const JsonValue &entry : entries->array()) {
        if (!entry.isObject())
            return R(bad("entry is not an object"));
        ResultRow row;
        const auto str = [&entry](const char *key,
                                  std::string *out) {
            const JsonValue *v = entry.find(key);
            if (v == nullptr || !v->isString())
                return false;
            *out = v->string();
            return true;
        };
        if (!str("kernel", &row.kernel) ||
            !str("model", &row.model) ||
            !str("matrix", &row.matrix)) {
            return R(bad("entry lacks kernel/model/matrix names"));
        }
        const JsonValue *stats = entry.find("stats");
        if (stats == nullptr || !stats->isObject())
            return R(bad("entry '" + row.matrix +
                         "' lacks a stats object"));
        const auto counter = [stats](const char *key,
                                     std::uint64_t *out) {
            const JsonValue *v = stats->find(key);
            return v != nullptr && v->counterValue(out);
        };
        const auto scalar = [stats](const char *key, double *out) {
            const JsonValue *v = stats->find(key);
            return v != nullptr && v->doubleValue(out);
        };
        RunResult &res = row.result;
        const bool countersOk =
            counter("cycles", &res.cycles) &&
            counter("products", &res.products) &&
            counter("macSlots", &res.macSlots) &&
            counter("tasksT1", &res.tasksT1) &&
            counter("tasksT3", &res.tasksT3) &&
            counter("stallCycles", &res.stallCycles) &&
            counter("dpgActiveAccum", &res.dpgActiveAccum) &&
            counter("cNetScaleAccum", &res.cNetScaleAccum) &&
            counter("traffic.readsA", &res.traffic.readsA) &&
            counter("traffic.wastedA", &res.traffic.wastedA) &&
            counter("traffic.readsB", &res.traffic.readsB) &&
            counter("traffic.wastedB", &res.traffic.wastedB) &&
            counter("traffic.writesC", &res.traffic.writesC);
        const bool energyOk =
            scalar("energy.fetchA", &res.energy.fetchA) &&
            scalar("energy.fetchB", &res.energy.fetchB) &&
            scalar("energy.writeC", &res.energy.writeC) &&
            scalar("energy.schedule", &res.energy.schedule) &&
            scalar("energy.compute", &res.energy.compute);
        if (!countersOk || !energyOk) {
            return R(bad("entry '" + row.matrix +
                         "' has missing or malformed stats"));
        }

        const JsonValue *hist = stats->find("utilHist");
        if (hist == nullptr || !hist->isObject())
            return R(bad("entry '" + row.matrix +
                         "' lacks the utilHist histogram"));
        double lo = 0.0, hi = 0.0;
        std::uint64_t total = 0, nan = 0;
        const JsonValue *loV = hist->find("lo");
        const JsonValue *hiV = hist->find("hi");
        const JsonValue *totalV = hist->find("total");
        const JsonValue *countsV = hist->find("counts");
        if (loV == nullptr || !loV->doubleValue(&lo) ||
            hiV == nullptr || !hiV->doubleValue(&hi) ||
            totalV == nullptr || !totalV->counterValue(&total) ||
            countsV == nullptr || !countsV->isArray()) {
            return R(bad("entry '" + row.matrix +
                         "' has a malformed utilHist"));
        }
        const JsonValue *nanV = hist->find("nan");
        if (nanV != nullptr && !nanV->counterValue(&nan))
            return R(bad("entry '" + row.matrix +
                         "' has a malformed utilHist nan count"));
        const auto &counts = countsV->array();
        if (counts.empty() || !std::isfinite(lo) ||
            !std::isfinite(hi) || !(lo < hi)) {
            return R(bad("entry '" + row.matrix +
                         "' has a degenerate utilHist range"));
        }
        Histogram h(static_cast<int>(counts.size()), lo, hi);
        std::uint64_t sum = 0;
        for (int b = 0; b < h.numBuckets(); ++b) {
            std::uint64_t count = 0;
            if (!counts[static_cast<std::size_t>(b)].counterValue(
                    &count)) {
                return R(bad("entry '" + row.matrix +
                             "' has a malformed utilHist bucket"));
            }
            sum += count;
            if (count > 0)
                h.add((h.bucketLo(b) + h.bucketHi(b)) / 2.0, count);
        }
        if (nan > 0)
            h.add(std::numeric_limits<double>::quiet_NaN(), nan);
        if (sum != total || h.totalCount() != total ||
            h.nanCount() != nan) {
            return R(bad("entry '" + row.matrix +
                         "' utilHist counts disagree with total"));
        }
        res.utilHist = h;
        rows.push_back(std::move(row));
    }
    return R(std::move(rows));
}

void
exportBenchJson(const RunData &run, std::ostream &os)
{
    std::vector<BenchJsonEntry> entries;
    entries.reserve(run.results.size());
    for (const ResultRow &row : run.results)
        entries.push_back(
            {row.kernel, row.model, row.matrix, row.result});
    std::vector<BenchJsonEngineEntry> engine;
    engine.reserve(run.engine.size());
    for (const EngineRow &row : run.engine)
        engine.push_back({row.kernel, row.matrix, row.counters});
    writeBenchJson(os, entries, engine);
}

} // namespace warehouse
} // namespace unistc
