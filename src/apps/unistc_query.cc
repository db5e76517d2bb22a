/**
 * @file
 * unistc_query: the results-warehouse CLI (docs/WAREHOUSE.md).
 *
 *   unistc_query --warehouse DIR list
 *   unistc_query --warehouse DIR show latest
 *   unistc_query --warehouse DIR trend --metric cycles
 *   unistc_query --warehouse DIR drift
 *   unistc_query --warehouse DIR slowest --top 10
 *   unistc_query --warehouse DIR export-bench --run latest --out F
 *   unistc_query --warehouse DIR check-regressions \
 *       --baseline <label|id|latest> [--current latest] \
 *       [--baseline-json bench/baselines/BENCH_smoke.json]
 *
 * Exit codes: 0 success / no regressions, 1 usage or data error,
 * 2 significant regressions found (check-regressions only).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "driver/version.hh"
#include "warehouse/query.hh"
#include "warehouse/reader.hh"

namespace
{

using namespace unistc;
using namespace unistc::warehouse;

int
usage(const char *self)
{
    std::fprintf(
        stderr,
        "usage: %s [--warehouse DIR] <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                      runs in the warehouse\n"
        "  show <run>                one run's commit record\n"
        "  trend                     geomean speedup vs earliest run\n"
        "  drift                     per-family utilisation drift\n"
        "  slowest                   slowest rows of one run\n"
        "  export-bench              run -> UNISTC_BENCH_JSON format\n"
        "  check-regressions         latest run vs a baseline\n"
        "\n"
        "options:\n"
        "  --warehouse DIR  store root (or UNISTC_WAREHOUSE_DIR)\n"
        "  --bench NAME     restrict to one bench binary\n"
        "  --run SEL        run selector: latest | id | label\n"
        "  --metric M       cycles|energy|utilisation|stalls|"
        "products|traffic\n"
        "  --top N          row count for `slowest` (default 10)\n"
        "  --out FILE       output path for `export-bench`\n"
        "  --baseline SEL   baseline run for check-regressions\n"
        "  --baseline-json F  committed BENCH_*.json baseline\n"
        "  --current SEL    run under test (default latest)\n"
        "  --threshold X    geomean ratio that matters (1.05)\n"
        "  --alpha A        t-test significance level (0.05)\n"
        "  --version        git revision + on-disk schema versions\n",
        self);
    return 1;
}

int
fail(const Status &s)
{
    std::fprintf(stderr, "unistc_query: %s\n", s.message().c_str());
    return 1;
}

/** Parsed command line. */
struct Args
{
    std::string dir;
    std::string command;
    std::string bench;
    std::string run = "latest";
    std::string metric = "cycles";
    std::string out;
    std::string baseline;
    std::string baselineJson;
    std::string current = "latest";
    std::size_t top = 10;
    RegressionOptions reg;
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    if (const char *env = std::getenv("UNISTC_WAREHOUSE_DIR"))
        args->dir = env;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&](std::string *out) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "unistc_query: %s needs a value\n",
                             a.c_str());
                return false;
            }
            *out = argv[++i];
            return true;
        };
        std::string v;
        if (a == "--warehouse") {
            if (!value(&args->dir))
                return false;
        } else if (a == "--bench") {
            if (!value(&args->bench))
                return false;
        } else if (a == "--run") {
            if (!value(&args->run))
                return false;
        } else if (a == "--metric") {
            if (!value(&args->metric))
                return false;
        } else if (a == "--out") {
            if (!value(&args->out))
                return false;
        } else if (a == "--baseline") {
            if (!value(&args->baseline))
                return false;
        } else if (a == "--baseline-json") {
            if (!value(&args->baselineJson))
                return false;
        } else if (a == "--current") {
            if (!value(&args->current))
                return false;
        } else if (a == "--top") {
            if (!value(&v))
                return false;
            args->top = static_cast<std::size_t>(
                std::strtoul(v.c_str(), nullptr, 10));
        } else if (a == "--threshold") {
            if (!value(&v))
                return false;
            args->reg.ratioThreshold = std::strtod(v.c_str(), nullptr);
        } else if (a == "--alpha") {
            if (!value(&v))
                return false;
            args->reg.alpha = std::strtod(v.c_str(), nullptr);
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "unistc_query: unknown option %s\n",
                         a.c_str());
            return false;
        } else if (args->command.empty()) {
            args->command = a;
        } else if (args->command == "show" ||
                   args->command == "slowest" ||
                   args->command == "export-bench") {
            args->run = a; // Positional run selector.
        } else {
            std::fprintf(stderr,
                         "unistc_query: unexpected argument %s\n",
                         a.c_str());
            return false;
        }
    }
    return !args->command.empty();
}

int
cmdList(const WarehouseReader &reader, const Args &args)
{
    TextTable t;
    t.setHeader({"run", "bench", "label", "time", "git", "rows",
                 "state"});
    std::size_t shown = 0;
    for (const RunMeta &m : reader.runs()) {
        if (!args.bench.empty() && m.bench != args.bench)
            continue;
        ++shown;
        t.addRow({m.id, m.bench, m.label, m.time,
                  m.gitSha.substr(0, 12),
                  m.hasDeclaredRows
                      ? std::to_string(m.declaredResultRows)
                      : "?",
                  m.committed ? "committed" : "PARTIAL"});
    }
    if (shown == 0) {
        std::printf("no runs in '%s'\n", reader.dir().c_str());
        return 0;
    }
    t.print();
    return 0;
}

int
cmdShow(const WarehouseReader &reader, const Args &args)
{
    auto id = reader.resolve(args.run, args.bench);
    if (!id.ok())
        return fail(id.status());
    auto run = reader.load(id.value());
    if (!run.ok())
        return fail(run.status());
    const RunMeta &m = run.value().meta;
    std::printf("run:       %s (%s)\n", m.id.c_str(),
                m.committed ? "committed" : "PARTIAL");
    std::printf("bench:     %s\n", m.bench.c_str());
    if (!m.label.empty())
        std::printf("label:     %s\n", m.label.c_str());
    if (!m.gitSha.empty())
        std::printf("git:       %s\n", m.gitSha.c_str());
    if (!m.time.empty())
        std::printf("time:      %s\n", m.time.c_str());
    if (!m.argvLine.empty())
        std::printf("argv:      %s\n", m.argvLine.c_str());
    for (const auto &[k, v] : m.env)
        std::printf("env:       %s=%s\n", k.c_str(), v.c_str());
    std::printf("rows:      %zu result, %zu engine\n",
                run.value().results.size(),
                run.value().engine.size());
    if (run.value().recoveredDrops > 0) {
        std::printf("recovered: %llu row(s) dropped by truncation "
                    "recovery\n",
                    static_cast<unsigned long long>(
                        run.value().recoveredDrops));
    }
    return 0;
}

int
cmdTrend(const WarehouseReader &reader, const Args &args)
{
    auto trend = geomeanSpeedupTrend(reader, args.bench, args.metric);
    if (!trend.ok())
        return fail(trend.status());
    TextTable t("geomean " + args.metric +
                " speedup vs earliest run (>1 is better)");
    t.setHeader({"run", "time", "git", "pairs", "speedup"});
    for (const TrendPoint &p : trend.value()) {
        t.addRow({p.runId, p.time, p.gitSha.substr(0, 12),
                  std::to_string(p.pairs),
                  fmtRatio(p.geomeanSpeedup, 3)});
    }
    t.print();
    return 0;
}

int
cmdDrift(const WarehouseReader &reader, const Args &args)
{
    auto drift = utilisationDrift(reader, args.bench);
    if (!drift.ok())
        return fail(drift.status());
    TextTable t("mean utilisation by matrix family, earliest vs "
                "latest run");
    t.setHeader({"family", "first", "last", "first util",
                 "last util", "drift"});
    for (const DriftPoint &p : drift.value()) {
        t.addRow({p.family, p.firstRun, p.lastRun,
                  fmtPercent(p.firstUtil), fmtPercent(p.lastUtil),
                  fmtPercent(p.lastUtil - p.firstUtil)});
    }
    t.print();
    return 0;
}

int
cmdSlowest(const WarehouseReader &reader, const Args &args)
{
    auto id = reader.resolve(args.run, args.bench);
    if (!id.ok())
        return fail(id.status());
    auto run = reader.load(id.value());
    if (!run.ok())
        return fail(run.status());
    TextTable t("slowest rows of run " + id.value());
    t.setHeader({"kernel", "model", "matrix", "cycles",
                 "utilisation"});
    for (const ResultRow &row :
         slowestMatrices(run.value(), args.top)) {
        t.addRow({row.kernel, row.model, row.matrix,
                  fmtCount(row.result.cycles),
                  fmtPercent(row.result.utilisation())});
    }
    t.print();
    return 0;
}

int
cmdExportBench(const WarehouseReader &reader, const Args &args)
{
    auto id = reader.resolve(args.run, args.bench);
    if (!id.ok())
        return fail(id.status());
    auto run = reader.load(id.value());
    if (!run.ok())
        return fail(run.status());
    if (args.out.empty() || args.out == "-") {
        exportBenchJson(run.value(), std::cout);
        return 0;
    }
    std::ofstream os(args.out);
    if (!os)
        return fail(ioError("cannot open '" + args.out +
                            "' for writing"));
    exportBenchJson(run.value(), os);
    if (!os.good())
        return fail(ioError("error writing '" + args.out + "'"));
    return 0;
}

int
cmdCheckRegressions(const WarehouseReader &reader, const Args &args)
{
    auto currentId = reader.resolve(args.current, args.bench);
    if (!currentId.ok())
        return fail(currentId.status());
    auto current = reader.load(currentId.value());
    if (!current.ok())
        return fail(current.status());

    std::vector<ResultRow> baseline;
    std::string baselineName;
    if (!args.baselineJson.empty()) {
        auto doc = parseJsonFile(args.baselineJson);
        if (!doc.ok())
            return fail(doc.status());
        auto rows =
            resultRowsFromBenchJson(doc.value(), args.baselineJson);
        if (!rows.ok())
            return fail(rows.status());
        baseline = std::move(rows).value();
        baselineName = args.baselineJson;
    } else if (!args.baseline.empty()) {
        auto baseId = reader.resolve(args.baseline, args.bench);
        if (!baseId.ok())
            return fail(baseId.status());
        if (baseId.value() == currentId.value()) {
            return fail(invalidArgument(
                "baseline and current both resolve to run '" +
                baseId.value() + "'"));
        }
        auto base = reader.load(baseId.value());
        if (!base.ok())
            return fail(base.status());
        baseline = std::move(base.value().results);
        baselineName = baseId.value();
    } else {
        return fail(invalidArgument(
            "check-regressions needs --baseline or "
            "--baseline-json"));
    }

    std::printf("current:  run %s\n", currentId.value().c_str());
    std::printf("baseline: %s\n", baselineName.c_str());
    const RegressionReport report = checkRegressions(
        baseline, current.value().results, args.reg);
    printRegressionReport(std::cout, report, args.reg);
    std::cout.flush();
    return report.hasRegression() ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--version") == 0) {
            std::fputs(
                unistc::driver::versionString(argv[0]).c_str(),
                stdout);
            return 0;
        }
    }
    Args args;
    if (!parseArgs(argc, argv, &args))
        return usage(argv[0]);
    if (args.dir.empty()) {
        std::fprintf(stderr,
                     "unistc_query: no warehouse (use --warehouse "
                     "DIR or UNISTC_WAREHOUSE_DIR)\n");
        return 1;
    }
    const WarehouseReader reader(args.dir);
    if (args.command == "list")
        return cmdList(reader, args);
    if (args.command == "show")
        return cmdShow(reader, args);
    if (args.command == "trend")
        return cmdTrend(reader, args);
    if (args.command == "drift")
        return cmdDrift(reader, args);
    if (args.command == "slowest")
        return cmdSlowest(reader, args);
    if (args.command == "export-bench")
        return cmdExportBench(reader, args);
    if (args.command == "check-regressions")
        return cmdCheckRegressions(reader, args);
    std::fprintf(stderr, "unistc_query: unknown command '%s'\n",
                 args.command.c_str());
    return usage(argv[0]);
}
