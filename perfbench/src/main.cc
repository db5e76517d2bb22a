/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--size full|small] [--parity] [--expected FILE]
 *             [--spans FILE]
 *
 * Runs passes of one workload until --seconds is used up, checks the
 * simulated outputs, prints a provenance header and every metric by
 * name, and ends with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * untraced and traced passes alternate and the metrics are the
 * per-layer ones. Exit status is 0 only when every check passed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "bbc/block_pattern.hh"
#include "bench.hh"
#include "digest.hh"
#include "driver/version.hh"
#include "engine/task_stream.hh"

extern char **environ;

namespace perfbench
{

namespace
{

const std::vector<std::string> kSetupSpans = {
    "corpus.generate", "driver.prepare", "bbc.from_csr"};

/**
 * Host seconds of the reference computation at reference speed. Times
 * are reported at this speed: host seconds x kReferenceSeconds / the
 * run's median reference time (see referenceSeconds).
 */
constexpr double kReferenceSeconds = 0.06;

/** Keeps the reference computation's result observable. */
volatile std::uint64_t referenceSink = 0;

const std::vector<std::string> kModelSlugs = {
    "ds_stc", "rm_stc", "uni_stc", "gamma", "sigma", "trapezoid",
    "nv_dtc"};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload suite_lineup|"
                 "random_fullline|dlmc_device [--seed N] "
                 "[--seconds S] [--trace 0|1] [--size full|small] "
                 "[--parity] [--expected FILE] [--spans FILE]\n",
                 error.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv, const Workload *&workload)
{
    Options o;
    bool seeded = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty())
                usage("bad --seed '" + value + "'");
            seeded = true;
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(o.seconds >= 0.0))
                usage("bad --seconds '" + value + "'");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "full" && value != "small")
                usage("--size takes full or small");
            o.small = value == "small";
        } else if (flag == "--expected") {
            o.expected = value;
        } else if (flag == "--spans") {
            o.spans = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    for (const Workload *w : {&suiteLineup(), &randomFullline(),
                              &dlmcDevice()}) {
        if (o.workload == w->name)
            workload = w;
    }
    if (workload == nullptr)
        usage("unknown workload '" + o.workload + "'");
    if (!seeded)
        o.seed = workload->defaultSeed;
    return o;
}

/**
 * The matrix artifact cache, corpus clamps and report side channels
 * all read UNISTC_* variables; the benchmark runs with none of them,
 * so caches start empty and inputs are exactly the seeded ones.
 */
void
clearSimulatorEnvironment()
{
    std::vector<std::string> keys;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "UNISTC_", 7) == 0) {
            const char *eq = std::strchr(*e, '=');
            keys.emplace_back(*e, eq != nullptr ? eq - *e : 0);
        }
    }
    for (const std::string &k : keys)
        ::unsetenv(k.c_str());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
get(const std::map<std::string, double> &m, const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

double
sumOf(const std::map<std::string, double> &m,
      const std::vector<std::string> &keys)
{
    double s = 0.0;
    for (const std::string &k : keys)
        s += get(m, k);
    return s;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" ", colon + 1));
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Committed digest of (workload, seed), or "" when none is listed. */
std::string
expectedDigest(const std::string &path, const Options &o)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench: cannot read expected digests "
                             "'%s'\n", path.c_str());
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, digest;
        std::uint64_t seed = 0;
        if (line.empty() || line[0] == '#')
            continue;
        if (fields >> name >> seed >> digest && name == o.workload &&
            seed == o.seed)
            return digest;
    }
    return "";
}

/**
 * Host seconds one fixed reference computation takes right now. Half
 * of it is branchy scalar work (xorshift steps, popcounts, lookups in
 * a 16 KiB table), like the models; half is linear scans of a 16 KiB
 * array, like the membership tests of the corpus generators. The
 * host's speed drifts with other load; timing this next to every pass
 * lets a run report its times at a fixed reference speed.
 */
double
referenceSeconds()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(4096);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint32_t>(i * 2654435761u);
        return t;
    }();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t acc = 0;
    const SteadyClock::time_point t0 = SteadyClock::now();
    for (int i = 0; i < 10000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint32_t v = table[x & 4095];
        acc += static_cast<std::uint64_t>(std::popcount(x ^ v));
        if ((x & 3) == 0)
            acc ^= v;
    }
    for (int i = 0; i < 6000; ++i) {
        const std::uint32_t missing = static_cast<std::uint32_t>(i) | 1u;
        acc += static_cast<std::uint64_t>(
            std::find(table.begin(), table.end(), missing) - table.begin());
    }
    referenceSink = acc;
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/** One pass, with its wall time, span range and reference time. */
PassResult
timedPass(const Workload &wl, const Options &o, Recorder &rec,
          ModelClock *clock)
{
    const double before = referenceSeconds();
    PassResult p = wl.pass(o, rec, clock);
    const double after = referenceSeconds();
    p.endSpan = rec.spans().size();
    const Span &root = rec.spans()[p.firstSpan];
    p.wall = root.end - root.start;
    p.reference = 0.5 * (before + after);
    return p;
}

/** Per-layer metrics of one traced pass. */
std::map<std::string, double>
layerMetrics(const Recorder &rec, const PassResult &p)
{
    const std::map<std::string, double> self =
        rec.selfTimes(p.firstSpan, p.endSpan);
    std::map<std::string, double> m;
    double models = 0.0;
    for (const std::string &s : kModelSlugs) {
        m["model." + s + "_s"] = get(p.modelSeconds, s);
        models += get(p.modelSeconds, s);
    }
    m["corpus.generate_s"] = get(self, "corpus.generate");
    m["bbc.from_csr_s"] = get(self, "bbc.from_csr");
    m["driver.prepare_s"] = get(self, "driver.prepare");
    m["driver.lineup_self_s"] = get(self, "driver.lineup");
    // The engine's share of a lineup or pipeline call is the call's
    // self time minus the time spent inside the models.
    m["engine.enumerate_s"] =
        get(self, "engine.stream") + get(self, "engine.run") - models;
    m["isa.trace_spmm_s"] = get(self, "isa.trace_spmm");
    m["sm.device_s"] = get(self, "sm.device");
    m["report.table_s"] = get(self, "report.table");
    m["report.bench_json_s"] = get(self, "report.bench_json");
    m["report.warehouse_s"] = get(self, "report.warehouse");
    double accounted = 0.0;
    for (const auto &[name, value] : m)
        accounted += value;
    m["unaccounted_s"] = p.wall - accounted;
    return m;
}

/** One reported metric: JSON name, value and unit, plus a note. */
struct Metric
{
    std::string name;
    double value = 0.0;
    const char *unit = "s";
    std::string note;
};

/** The passes of one run. */
struct Passes
{
    std::vector<PassResult> plain;
    std::vector<PassResult> traced;
    double peakRssMb = 0.0; ///< Over the passes, before any check.
    /** Reference-speed seconds per host second over the run. */
    double scale = 1.0;
};

/**
 * Untraced (and, with --trace 1, traced) passes until the time budget
 * is used; at least one of each.
 */
Passes
runPasses(const Workload &wl, const Options &o, Recorder &rec)
{
    Passes out;
    const double t_start = rec.now();
    for (;;) {
        out.plain.push_back(timedPass(wl, o, rec, nullptr));
        if (o.trace) {
            ModelClock clock;
            PassResult p = timedPass(wl, o, rec, &clock);
            for (std::size_t i = 0; i < clock.names.size(); ++i) {
                p.modelSeconds[slug(clock.names[i])] =
                    std::chrono::duration<double>(clock.busy[i]).count();
            }
            out.traced.push_back(std::move(p));
        }
        const double used = rec.now() - t_start;
        if (used + used / static_cast<double>(out.plain.size()) > o.seconds)
            break;
    }
    out.peakRssMb = peakRssMb();
    std::vector<double> refs;
    for (const auto *group : {&out.plain, &out.traced}) {
        for (const PassResult &p : *group)
            refs.push_back(p.reference);
    }
    out.scale = kReferenceSeconds / median(refs);
    return out;
}

/** Outcome of the output checks. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> notes;
    std::string digest;
    std::string digestNote = "not checked (non-default seed or size)";
};

/** Every output check; all run outside the timed passes. */
Verdict
check(const Workload &wl, const Options &o, const Passes &run)
{
    Verdict v;
    const PassResult &first = run.plain.front();
    std::set<std::string> failedOps;
    auto fail = [&](const std::string &op, const std::string &why) {
        failedOps.insert(op);
        v.notes.push_back(why);
    };

    // Determinism: every pass, traced or not, repeats the first.
    auto samePass = [&](const PassResult &p, const char *kind) {
        v.attempted += p.ops.size();
        for (const std::string &f : p.failures)
            fail(f, f);
        for (std::size_t i = 0; i < p.ops.size(); ++i) {
            if (i >= first.ops.size() || p.ops[i].name != first.ops[i].name ||
                p.ops[i].digest != first.ops[i].digest) {
                fail(p.ops[i].name, std::string(kind) + " pass differs at " +
                                        p.ops[i].name);
            }
        }
        if (p.tailDigest != first.tailDigest)
            fail(kind, std::string(kind) + " pass: latencies differ");
    };
    for (const PassResult &p : run.plain)
        samePass(p, "untraced");
    for (const PassResult &p : run.traced)
        samePass(p, "traced");

    if (wl.forEachPlan != nullptr) {
        // Every model's products equal the stream's structural count.
        wl.forEachPlan(o, [&](std::size_t op,
                              const unistc::KernelPlan &plan) {
            std::uint64_t structural = 0;
            const auto stream = plan.stream();
            unistc::StreamedTask item;
            while (stream->next(item)) {
                structural += static_cast<std::uint64_t>(
                    unistc::blockProductCount(item.task.a, item.task.b));
            }
            for (const std::uint64_t got : first.ops.at(op).products) {
                if (got != structural) {
                    fail(first.ops[op].name,
                         first.ops[op].name + ": products " +
                             std::to_string(got) + " != structural " +
                             std::to_string(structural));
                }
            }
        });
    }
    if (o.small && wl.parity != nullptr) {
        for (const std::string &m : wl.parity(o, first))
            fail(m, "parity mismatch, library says " + m);
    }

    v.failed = std::min<std::uint64_t>(failedOps.size(), v.attempted);
    v.digest = hex(runDigest(first));
    if (!o.small && o.seed == wl.defaultSeed) {
        const std::string want =
            o.expected.empty() ? "" : expectedDigest(o.expected, o);
        if (want.empty()) {
            v.digestNote = "no expected digest listed";
            v.failed = v.attempted;
        } else if (want != v.digest) {
            v.digestNote = "expected " + want;
            v.failed = v.attempted; // every output is suspect
        } else {
            v.digestNote = "matches expected";
        }
    }
    if (v.failed == 0 && !v.notes.empty())
        v.failed = 1;
    v.correct = v.failed == 0;
    return v;
}

/** "(median of N; host min .., max ..)" for a metric line. */
std::string
spread(const std::vector<double> &v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "(median of %zu; host min %.6g, max %.6g)",
                  v.size(), *std::min_element(v.begin(), v.end()),
                  *std::max_element(v.begin(), v.end()));
    return buf;
}

/**
 * wall_s and setup_s: medians over the passes; task_evals_per_s: the
 * run's totals; all at reference speed. peak_rss_mb as measured.
 */
std::vector<Metric>
endToEnd(const Workload &wl, const Recorder &rec, const Passes &run)
{
    std::vector<double> walls, setups;
    double taskEvals = 0.0;
    double simSeconds = 0.0;
    for (const PassResult &p : run.plain) {
        const std::map<std::string, double> total =
            rec.totals(p.firstSpan, p.endSpan);
        walls.push_back(p.wall);
        setups.push_back(sumOf(total, kSetupSpans));
        taskEvals += p.taskEvals;
        simSeconds += sumOf(total, wl.simSpans);
    }
    // Simulation spans are short; the run's totals average them.
    const double evals = simSeconds > 0.0 ? taskEvals / simSeconds : 0.0;
    std::printf("# host seconds: wall_s %.6g, setup_s %.6g, "
                "task_evals_per_s %.6g; reference speed factor %.6g\n",
                median(walls), median(setups), evals, run.scale);
    const double k = run.scale;
    return {{"wall_s", median(walls) * k, "s", spread(walls)},
            {"setup_s", median(setups) * k, "s", spread(setups)},
            {"task_evals_per_s", evals / k, "1/s",
             "(over " + std::to_string(walls.size()) + " passes)"},
            {"peak_rss_mb", run.peakRssMb, "MB", ""}};
}

/** Every per-layer metric: medians over traced passes, plus the probe. */
std::vector<Metric>
perLayer(const Workload &wl, const Options &o, const Recorder &rec,
         const Passes &run)
{
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> walls, tracedWalls;
    for (const PassResult &p : run.plain)
        walls.push_back(p.wall);
    for (const PassResult &p : run.traced) {
        tracedWalls.push_back(p.wall);
        for (const auto &[name, v] : layerMetrics(rec, p))
            samples[name].push_back(v);
    }
    const double k = run.scale;
    std::vector<Metric> m;
    for (const auto &[name, v] : samples)
        m.push_back({name, median(v) * k, "s", ""});

    const std::map<std::string, double> &counts = run.traced.front().counts;
    for (const char *n : {"corpus.nnz", "bbc.blocks", "engine.tasks",
                          "isa.bundles", "report.rows"})
        m.push_back({n, get(counts, n), "count", ""});
    for (const std::string &s : kModelSlugs) {
        const std::string n = "model." + s + ".sim_cycles";
        m.push_back({n, get(counts, n), "cycles", ""});
    }
    m.push_back({"sm.makespan_cycles", get(counts, "sm.makespan_cycles"),
                 "cycles", ""});

    UniProbe probe;
    if (wl.forEachPlan != nullptr) {
        wl.forEachPlan(o, [&](std::size_t, const unistc::KernelPlan &plan) {
            probe.replay(plan, wl.machine);
        });
    }
    const double uniCycles = get(counts, "model.uni_stc.sim_cycles");
    const std::string probeNote = probe.sdpuCycles == 0 ? ""
        : static_cast<double>(probe.sdpuCycles) == uniCycles
            ? "(equals model.uni_stc.sim_cycles)"
            : "(DIFFERS from model.uni_stc.sim_cycles)";
    m.push_back({"unistc.tms_s", probe.tmsSeconds * k, "s", ""});
    m.push_back({"unistc.dpg_s", probe.dpgSeconds * k, "s", ""});
    m.push_back({"unistc.sdpu_s", probe.sdpuSeconds * k, "s", ""});
    m.push_back({"unistc.t3_tasks", static_cast<double>(probe.t3Tasks),
                 "count", ""});
    m.push_back({"unistc.t4_tasks", static_cast<double>(probe.t4Tasks),
                 "count", ""});
    m.push_back({"unistc.sdpu_cycles", static_cast<double>(probe.sdpuCycles),
                 "cycles", probeNote});

    const double wall = median(walls);
    const double tracedWall = median(tracedWalls);
    char note[128];
    std::snprintf(note, sizeof(note),
                  "(traced wall_s %.4g s over untraced %.4g s)",
                  tracedWall * k, wall * k);
    m.push_back({"trace_overhead", wall > 0.0 ? tracedWall / wall - 1.0 : 0.0,
                 "ratio", note});
    for (Metric &x : m) {
        if (x.name == "unaccounted_s" && tracedWall > 0.0) {
            std::snprintf(note, sizeof(note), "(%.2f%% of traced wall_s)",
                          100.0 * x.value / (tracedWall * k));
            x.note = note;
        }
    }
    std::sort(m.begin(), m.end(), [](const Metric &a, const Metric &b) {
        return a.name < b.name;
    });
    return m;
}

/** fail_frac and paper_gap_pct: printed, not JSON metrics. */
void
printFailuresAndPaperGap(const Verdict &v, const PassResult &first)
{
    std::printf("%-28s %14.6g %-7s(%llu of %llu operations)\n", "fail_frac",
                static_cast<double>(v.failed) /
                    static_cast<double>(std::max<std::uint64_t>(v.attempted, 1)),
                "ratio", static_cast<unsigned long long>(v.failed),
                static_cast<unsigned long long>(v.attempted));
    if (first.paper.empty()) {
        std::printf("paper_gap_pct: no published counterpart for this "
                    "workload; the model is unvalidated here\n");
        return;
    }
    double gap = 0.0;
    std::string detail;
    for (const PaperRatio &r : first.paper) {
        gap += std::abs(r.simulated / r.paper - 1.0);
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s%s %.2fx/%.2fx",
                      detail.empty() ? "" : ", ", r.label.c_str(),
                      r.simulated, r.paper);
        detail += buf;
    }
    std::printf("%-28s %14.6g %-7s(simulated/paper: %s)\n", "paper_gap_pct",
                100.0 * gap / static_cast<double>(first.paper.size()), "%",
                detail.c_str());
}

int
run(int argc, char **argv)
{
    const Workload *wl = nullptr;
    const Options o = parse(argc, argv, wl);
    clearSimulatorEnvironment();

    std::printf("# perfbench workload=%s seed=%llu size=%s trace=%d "
                "seconds=%g\n",
                wl->name, static_cast<unsigned long long>(o.seed),
                o.small ? "small" : "full", o.trace ? 1 : 0, o.seconds);
    std::istringstream version(unistc::driver::versionString("perfbench"));
    for (std::string line; std::getline(version, line);)
        std::printf("# %s\n", line.c_str());
    std::printf("# cpu: %s; nproc: %ld; build: %s; threads used: 1\n",
                cpuModel().c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
                PERFBENCH_BUILD_TYPE);
    std::fflush(stdout);

    Recorder rec;
    const Passes passes = runPasses(*wl, o, rec);
    const Verdict v = check(*wl, o, passes);
    const PassResult &first = passes.plain.front();

    const auto &c = first.counts;
    std::printf("# inputs: matrices %.0f, nnz %.0f, T1 tasks %.0f, "
                "bundles %.0f, operations %zu per pass\n",
                get(c, "corpus.matrices"), get(c, "corpus.nnz"),
                get(c, "engine.tasks"), get(c, "isa.bundles"),
                first.ops.size());
    std::printf("# passes: %zu untraced, %zu traced\n", passes.plain.size(),
                passes.traced.size());
    std::printf("# digest: %s (%s)\n", v.digest.c_str(),
                v.digestNote.c_str());
    for (const std::string &n : v.notes)
        std::printf("# FAIL: %s\n", n.c_str());
    for (const std::string &l : first.benchLines)
        std::printf("%s\n", l.c_str());

    const std::vector<Metric> metrics = o.trace
        ? perLayer(*wl, o, rec, passes)
        : endToEnd(*wl, rec, passes);
    for (const Metric &m : metrics) {
        std::printf("%-28s %14.6g %-7s%s\n", m.name.c_str(), m.value, m.unit,
                    m.note.c_str());
    }
    printFailuresAndPaperGap(v, first);
    if (!o.spans.empty())
        rec.writeJson(o.spans);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                v.correct ? "true" : "false",
                static_cast<unsigned long long>(v.attempted),
                static_cast<unsigned long long>(v.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return v.correct ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
