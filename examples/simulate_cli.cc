/**
 * @file
 * Command-line simulator front-end: run any kernel on any matrix on
 * any modelled architecture.
 *
 *   simulate_cli --kernel spgemm --model all --gen banded:2048,24,0.4
 *   simulate_cli --kernel spmv --model Uni-STC --matrix my.mtx \
 *                --precision fp32 --dpgs 16 \
 *                --trace t.json --stats-json s.json
 *
 * Built on the execution driver (src/driver/): the experiment is a
 * plain serial body handed to a DriverSession, which supplies the
 * whole standard execution family — --quick/--smoke, --log-level,
 * --help and --version.
 *
 * This file holds the experiment parser and body: the front-end flag
 * family (--matrix/--gen/--kernel/--model/--arch/--precision/--dpgs/
 * --bcols/--save-bbc/--trace/--trace-events/--stats-json, listed in
 * simulateCliFlags() and --help) only decides WHAT to simulate.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bbc/bbc_io.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "driver/driver_session.hh"
#include "driver/kernel_run.hh"
#include "driver/sweep_request.hh"
#include "driver/version.hh"
#include "obs/metrics_export.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "runner/report.hh"
#include "sim/config.hh"
#include "sparse/io.hh"
#include "stc/registry.hh"

using namespace unistc;

namespace
{

/** Everything the simulation body needs, resolved before the run. */
struct Experiment
{
    std::map<std::string, std::string> opts; ///< Front-end extras.
    Kernel kernel = Kernel::SpMV;
    std::string kernelName;
    std::vector<std::string> names; ///< Models (lineup order).
    bool multi = false;             ///< --arch: one lineup pass.
    MachineConfig cfg = MachineConfig::fp64();
    int bCols = 64;
    /** --trace: per-model trace ring capacity; 0 when not tracing. */
    std::size_t traceEvents = 0;

    /** Value of front-end flag @p key, "" when it was not given. */
    std::string
    opt(const std::string &key) const
    {
        const auto it = opts.find(key);
        return it == opts.end() ? std::string() : it->second;
    }
};

/** Strict integer option parsing: the whole value must be a number. */
int
parseIntOpt(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const int v = std::stoi(text, &used);
        if (used != text.size())
            throw std::invalid_argument(text);
        return v;
    } catch (const std::exception &) {
        UNISTC_FATAL("--", flag, " needs an integer, got '", text,
                     "'");
    }
}

/**
 * parseIntOpt() for a count that must be positive: zero or a negative
 * value is an input error, not a simulator configuration to assert on.
 */
int
parseCountOpt(const std::string &flag, const std::string &text)
{
    const int n = parseIntOpt(flag, text);
    if (n <= 0)
        UNISTC_FATAL("--", flag, " needs a positive count, got ", n);
    return n;
}

/**
 * Parse --arch's comma-separated lineup; an unknown name fails with
 * the full list of available architectures.
 */
std::vector<std::string>
parseArchList(const std::string &list)
{
    std::vector<std::string> names;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = list.find(',', begin);
        const std::string name = comma == std::string::npos
            ? list.substr(begin)
            : list.substr(begin, comma - begin);
        if (name.empty())
            UNISTC_FATAL("--arch has an empty entry in '", list, "'");
        names.push_back(name);
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    const std::vector<std::string> all = allModelNames();
    std::string available;
    for (const std::string &n : all)
        available += (available.empty() ? "" : ", ") + n;
    for (const std::string &name : names) {
        if (std::find(all.begin(), all.end(), name) == all.end()) {
            UNISTC_FATAL("unknown architecture '", name,
                         "' in --arch (available: ", available, ")");
        }
    }
    return names;
}

/** The front-end's flags, for the driver parser. */
std::vector<driver::CliFlag>
simulateCliFlags()
{
    return {
        {"matrix", true, "PATH", "Matrix Market input"},
        {"gen", true, "SPEC",
         "synthetic input: banded:n,hb,fill | random:n,density | "
         "powerlaw:n,deg,alpha | stencil:grid"},
        {"kernel", true, "NAME",
         "spmv | spmspv | spmm | spgemm (default spmv)"},
        {"model", true, "NAME",
         "an architecture name or 'all' (default all)"},
        {"arch", true, "A,B,C",
         "architecture lineup run as ONE multi-model job over a "
         "shared task stream (docs/ARCHITECTURE.md)"},
        {"precision", true, "P", "fp64 | fp32 (default fp64)"},
        {"dpgs", true, "N", "Uni-STC DPG count (default 8)"},
        {"bcols", true, "N", "SpMM dense-B width (default 64)"},
        {"save-bbc", true, "PATH", "write the encoded BBC file"},
        {"trace", true, "PATH",
         "write a Chrome trace-event JSON (Perfetto)"},
        {"trace-events", true, "N",
         "per-model trace ring capacity (default 65536)"},
        {"stats-json", true, "PATH",
         "write all run statistics as JSON"},
    };
}

/**
 * Resolve and validate every front-end flag of @p cli into an
 * Experiment. UNISTC_FATALs on invalid input.
 */
Experiment
makeExperiment(const driver::ParsedCli &cli)
{
    Experiment ex;
    ex.opts = cli.extra;
    ex.kernelName =
        ex.opts.count("kernel") ? ex.opts["kernel"] : "spmv";
    if (ex.kernelName == "spmv")
        ex.kernel = Kernel::SpMV;
    else if (ex.kernelName == "spmspv")
        ex.kernel = Kernel::SpMSpV;
    else if (ex.kernelName == "spmm")
        ex.kernel = Kernel::SpMM;
    else if (ex.kernelName == "spgemm")
        ex.kernel = Kernel::SpGEMM;
    else
        UNISTC_FATAL("unknown kernel '", ex.kernelName, "'");

    const std::string precision = ex.opts.count("precision")
        ? ex.opts["precision"] : "fp64";
    if (precision == "fp32")
        ex.cfg = MachineConfig::fp32();
    else if (precision == "fp64")
        ex.cfg = MachineConfig::fp64();
    else
        UNISTC_FATAL("unknown --precision '", precision,
                     "' (use fp64|fp32)");
    if (ex.opts.count("dpgs"))
        ex.cfg.numDpgs = parseCountOpt("dpgs", ex.opts["dpgs"]);
    if (ex.opts.count("bcols"))
        ex.bCols = parseCountOpt("bcols", ex.opts["bcols"]);

    ex.multi = ex.opts.count("arch") != 0;
    if (ex.multi && ex.opts.count("model"))
        UNISTC_FATAL("--model and --arch are mutually exclusive");
    const std::string model_name =
        ex.opts.count("model") ? ex.opts["model"] : "all";
    if (ex.multi)
        ex.names = parseArchList(ex.opts["arch"]);
    else if (model_name == "all")
        ex.names = allModelNames();
    else
        ex.names.push_back(model_name);

    // A bad --trace-events fails even without --trace.
    std::size_t trace_events = TraceSink::kDefaultCapacity;
    if (ex.opts.count("trace-events")) {
        trace_events = static_cast<std::size_t>(
            parseCountOpt("trace-events", ex.opts["trace-events"]));
    }
    if (ex.opts.count("trace"))
        ex.traceEvents = trace_events;
    return ex;
}

/**
 * The matrix source of @p ex: --matrix path, --gen spec, or the
 * default generator spec. It names the matrix in the stats JSON
 * and the bench JSON records.
 */
std::string
sourceLabel(const Experiment &ex)
{
    const auto it_m = ex.opts.find("matrix");
    if (it_m != ex.opts.end())
        return it_m->second;
    const auto it_g = ex.opts.find("gen");
    if (it_g != ex.opts.end())
        return it_g->second;
    return "banded:1024,16,0.4";
}

/**
 * Read or generate the experiment's matrix and build its Prepared
 * image (BBC + the 50%-sparse SpMSpV operand).
 */
driver::Prepared
buildPrepared(const Experiment &ex)
{
    CsrMatrix a;
    if (ex.opts.count("matrix"))
        a = readMatrixMarketFile(ex.opt("matrix"));
    else if (ex.opts.count("gen"))
        a = generateFromSpec(ex.opt("gen"));
    else
        a = genBanded(1024, 16, 0.4, 1);
    SparseVector x50(a.cols());
    Rng rng(7);
    for (int i = 0; i < a.cols(); ++i) {
        if (rng.nextBool(0.5))
            x50.push(i, 1.0);
    }
    return driver::Prepared(sourceLabel(ex), std::move(a),
                            std::move(x50));
}

/**
 * --trace: one ring of @p ex.traceEvents events per lineup model,
 * each its own Chrome trace process (pid = lineup index) named
 * "<model> | <matrix>". Empty when the run is not traced.
 */
std::vector<std::unique_ptr<TraceSink>>
makeTraceSinks(const Experiment &ex,
               const std::vector<std::unique_ptr<const StcModel>> &models,
               const std::string &matrix)
{
    std::vector<std::unique_ptr<TraceSink>> sinks;
    if (ex.traceEvents == 0)
        return sinks;
    for (std::size_t n = 0; n < models.size(); ++n) {
        sinks.push_back(std::make_unique<TraceSink>(ex.traceEvents));
        sinks.back()->setProcess(static_cast<int>(n),
                                 models[n]->name() + " | " + matrix);
    }
    return sinks;
}

/** The simulation body a DriverSession drives. */
int
simulateBody(const Experiment &ex)
{
    const driver::Prepared prep = buildPrepared(ex);
    if (ex.kernel == Kernel::SpGEMM && prep.csr.rows() !=
        prep.csr.cols())
        UNISTC_FATAL("spgemm (C = A^2) needs a square matrix");

    std::printf("Matrix: %d x %d, %lld nonzeros\n", prep.csr.rows(),
                prep.csr.cols(),
                static_cast<long long>(prep.csr.nnz()));
    std::printf("BBC: %lld blocks, NnzPB %.2f, %s\n\n",
                static_cast<long long>(prep.bbc.numBlocks()),
                prep.bbc.nnzPerBlock(),
                fmtBytes(prep.bbc.storageBytes(
                             ex.cfg.bytesPerValue())).c_str());
    if (ex.opts.count("save-bbc")) {
        saveBbcFile(ex.opt("save-bbc"), prep.bbc);
        std::printf("Saved BBC image to %s\n\n",
                    ex.opt("save-bbc").c_str());
    }

    StatRegistry stats;
    stats.setText("kernel", ex.kernelName, "simulated kernel");
    stats.setText("matrix.source", prep.name,
                  "matrix input path or generator spec");
    stats.setCounter("matrix.rows",
                     static_cast<std::uint64_t>(prep.csr.rows()));
    stats.setCounter("matrix.cols",
                     static_cast<std::uint64_t>(prep.csr.cols()));
    stats.setCounter("matrix.nnz",
                     static_cast<std::uint64_t>(prep.csr.nnz()));
    stats.setCounter("matrix.bbcBlocks",
                     static_cast<std::uint64_t>(prep.bbc.numBlocks()));
    registerMachineConfig(stats, ex.cfg);

    std::vector<std::unique_ptr<const StcModel>> owned;
    owned.reserve(ex.names.size());
    for (const std::string &name : ex.names)
        owned.emplace_back(makeStcModel(name, ex.cfg));
    const std::vector<std::unique_ptr<TraceSink>> sinks =
        makeTraceSinks(ex, owned, prep.name);
    std::vector<TraceSink *> traces;
    for (const auto &s : sinks)
        traces.push_back(s.get());

    // --arch runs its whole lineup as ONE unit: the engine enumerates
    // the task stream once and fans every task out to all listed
    // models (docs/ARCHITECTURE.md). --model runs one unit per model.
    std::vector<RunResult> results(ex.names.size());
    PipelineCounters engine_counters;
    if (ex.multi) {
        std::vector<const StcModel *> models;
        models.reserve(owned.size());
        for (const auto &m : owned)
            models.push_back(m.get());
        results = driver::runKernelLineup(
            ex.kernel, models, prep, EnergyModel(),
            /*record_timing=*/false, &engine_counters, ex.bCols,
            traces);
    } else {
        for (std::size_t n = 0; n < ex.names.size(); ++n) {
            results[n] = driver::runKernel(
                ex.kernel, *owned[n], prep, EnergyModel(), ex.bCols,
                traces.empty() ? nullptr : traces[n]);
        }
    }

    TextTable t("Kernel '" + ex.kernelName + "' @ " +
                toString(ex.cfg.precision) + ", " +
                std::to_string(ex.cfg.macCount) + " MACs");
    t.setHeader({"STC", "cycles", "MAC util", "energy", "A reads",
                 "C writes"});
    for (std::size_t i = 0; i < ex.names.size(); ++i) {
        const RunResult &r = results[i];
        registerRunResult(stats, r, "models." + ex.names[i] + ".");
        t.addRow({ex.names[i], fmtCount(r.cycles),
                  fmtPercent(r.utilisation()),
                  fmtEnergyPj(r.energy.total()),
                  fmtCount(r.traffic.totalA()),
                  fmtCount(r.traffic.writesC)});
    }
    t.print();

    if (ex.multi) {
        // One shared stream fed the whole lineup; tasks_generated is
        // the single-model enumeration count while models_fanout
        // models consumed it.
        engine_counters.registerStats(stats);
    }

    // The per-model rings merge in lineup order into one trace sized
    // to the events they hold.
    const bool wrote_trace = !sinks.empty();
    if (wrote_trace) {
        std::size_t held = 0;
        for (const auto &s : sinks)
            held += s->size();
        TraceSink trace(std::max<std::size_t>(held, 1));
        for (const auto &s : sinks)
            trace.mergeFrom(*s);
        trace.writeChromeTraceFile(ex.opt("trace"));
        registerTraceSinkStats(stats, trace);
        std::printf("\nTrace: %s (%llu events, %llu dropped)\n",
                    ex.opt("trace").c_str(),
                    static_cast<unsigned long long>(trace.size()),
                    static_cast<unsigned long long>(trace.dropped()));
    }
    if (ex.opts.count("stats-json")) {
        writeStatsJsonFile(stats, ex.opt("stats-json"));
        std::printf("%sStats: %s\n", wrote_trace ? "" : "\n",
                    ex.opt("stats-json").c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<driver::CliFlag> extra = simulateCliFlags();
    Result<driver::ParsedCli> parsed =
        driver::parseSweepCli(argc, argv, extra);
    if (!parsed.ok())
        raise(parsed.status());
    const driver::ParsedCli cli = std::move(parsed).value();
    if (cli.helpRequested) {
        std::fputs(driver::sweepCliHelp(argv[0], extra).c_str(),
                   stdout);
        return 0;
    }
    if (cli.versionRequested) {
        std::fputs(driver::versionString(argv[0]).c_str(), stdout);
        return 0;
    }

    // Resolve and validate every front-end flag BEFORE the driver
    // runs, so a typo'd experiment fails before any simulation.
    const Experiment ex = makeExperiment(cli);

    driver::DriverSession session;
    return session.run(cli.request, argc, argv, [&ex](int, char **) {
        return simulateBody(ex);
    });
}
