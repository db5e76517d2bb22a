/**
 * @file
 * suite_lineup: the Table VIII sweep of bench_tab08_suitesparse. All
 * four kernels over the synthetic suite plus the eight representative
 * matrices, each (kernel, matrix) one runKernelLineup() call on
 * DS-STC, RM-STC and Uni-STC, then the Table VIII text table, the
 * bench JSON and a warehouse run, written to a fresh $TMPDIR
 * directory.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "corpus/representative.hh"
#include "corpus/suite.hh"
#include "digest.hh"
#include "driver/execution_context.hh"
#include "driver/kernel_run.hh"
#include "driver/tmpdir.hh"
#include "runner/block_driver.hh"
#include "runner/report.hh"
#include "warehouse/warehouse.hh"

namespace perfbench
{

namespace
{

using namespace unistc;

const std::vector<std::string> kModels = {"DS-STC", "RM-STC",
                                          "Uni-STC"};

/** syntheticSuite(scale, seed) plus the representative matrices. */
std::vector<NamedMatrix>
makeCorpus(const Options &o, Recorder *rec)
{
    const int scale = o.small ? 1 : 2;
    std::vector<NamedMatrix> suite;
    std::vector<NamedMatrix> reps;
    if (rec != nullptr) {
        suite = rec->span("corpus.generate",
                          [&] { return syntheticSuite(scale, o.seed); });
        reps = rec->span("corpus.generate",
                         [] { return representativeMatrices(); });
    } else {
        suite = syntheticSuite(scale, o.seed);
        reps = representativeMatrices();
    }
    for (auto &nm : reps)
        suite.push_back(std::move(nm));
    return suite;
}

/** Routes runKernelLineup() through @p ctx for the scope. */
class ScopedContext
{
  public:
    explicit ScopedContext(driver::ExecutionContext &ctx)
        : previous_(driver::ExecutionContext::makeCurrent(&ctx))
    {
    }

    ~ScopedContext() { driver::ExecutionContext::makeCurrent(previous_); }

    ScopedContext(const ScopedContext &) = delete;
    ScopedContext &operator=(const ScopedContext &) = delete;

  private:
    driver::ExecutionContext *previous_;
};

/** One warehouse run holding every recorded row; returns the rows. */
std::uint64_t
writeWarehouse(const driver::ResultLog &log, const std::string &dir)
{
    warehouse::RunWriterOptions opt;
    opt.dir = dir;
    opt.bench = "perfbench_suite_lineup";
    // One fsync at commit: per-batch fsyncs would time the disk.
    opt.fsyncEvery = 0;
    Result<std::unique_ptr<warehouse::RunWriter>> opened =
        warehouse::RunWriter::open(opt);
    if (!opened.ok())
        UNISTC_FATAL("warehouse: ", opened.status().message());
    const std::unique_ptr<warehouse::RunWriter> writer =
        std::move(opened).value();
    for (const auto &e : log.entries())
        writer->appendResult({e.kernel, e.model, e.matrix, e.result});
    for (const auto &e : log.engineEntries()) {
        // Untimed engine rows, as the bench sink writes them.
        warehouse::EngineRow row{e.kernel, e.matrix, e.counters, false};
        row.counters.enumerateSeconds = 0.0;
        row.counters.modelSeconds = 0.0;
        writer->appendEngine(row);
    }
    if (Status s = writer->finalize(); !s.ok())
        UNISTC_FATAL("warehouse commit: ", s.message());
    return writer->resultRows() + writer->engineRows();
}

PassResult
pass(const Options &o, Recorder &rec, ModelClock *clock)
{
    PassResult out;
    const MachineConfig cfg = MachineConfig::fp64();
    Result<std::string> made = driver::makeTempDir("perfbench-");
    if (!made.ok())
        UNISTC_FATAL("report directory: ", made.status().message());
    const std::string dir = std::move(made).value();

    out.firstSpan = rec.spans().size();
    const int root = rec.begin("pass");
    const std::vector<NamedMatrix> suite = makeCorpus(o, &rec);
    out.counts["corpus.matrices"] = static_cast<double>(suite.size());
    for (const auto &nm : suite)
        out.counts["corpus.nnz"] += static_cast<double>(nm.matrix.nnz());

    const Lineup lineup(kModels, cfg, clock);
    driver::ExecutionContext ctx;
    const ScopedContext scope(ctx);

    TextTable t("Table VIII: Uni-STC vs baselines over the corpus "
                "(" + std::to_string(suite.size()) + " matrices)");
    t.setHeader({"Kernel", "Baseline", "P aver", "P max", "E aver",
                 "E max", "ExP aver", "ExP max"});
    GeoMean overall_ds_p, overall_rm_p, overall_ds_ep, overall_rm_ep;
    for (const Kernel kernel : allKernels()) {
        ComparisonRollup vs_ds, vs_rm;
        for (const auto &nm : suite) {
            const driver::Prepared p = rec.span("driver.prepare", [&] {
                return driver::Prepared(nm.name, nm.matrix);
            });
            out.counts["bbc.blocks"] +=
                static_cast<double>(p.bbc.numBlocks());

            PipelineCounters counters;
            const int call = rec.begin("driver.lineup");
            if (clock != nullptr)
                clock->resetWindow();
            const std::vector<RunResult> rs = driver::runKernelLineup(
                kernel, lineup.models(), p, EnergyModel(), false,
                &counters);
            if (clock != nullptr && clock->called) {
                rec.add("engine.stream", rec.seconds(clock->first),
                        rec.seconds(clock->last));
            }
            rec.end(call);

            Op op;
            op.name = std::string(toString(kernel)) + "/" + nm.name;
            Digest d;
            for (std::size_t m = 0; m < rs.size(); ++m) {
                d.add(rs[m]);
                op.products.push_back(rs[m].products);
                out.taskEvals += static_cast<double>(rs[m].tasksT1);
                out.counts["model." + slug(kModels[m]) + ".sim_cycles"] +=
                    static_cast<double>(rs[m].cycles);
            }
            op.digest = d.value();
            out.ops.push_back(std::move(op));
            out.counts["engine.tasks"] +=
                static_cast<double>(counters.tasksGenerated);

            const RunResult &ru = rs[2];
            if (ru.cycles == 0)
                continue;
            const Comparison cd = compare(rs[0], ru);
            const Comparison cr = compare(rs[1], ru);
            vs_ds.add(cd);
            vs_rm.add(cr);
            overall_ds_p.add(cd.speedup);
            overall_rm_p.add(cr.speedup);
            overall_ds_ep.add(cd.energyEfficiency);
            overall_rm_ep.add(cr.energyEfficiency);
        }
        auto emit = [&](const char *base, ComparisonRollup &roll) {
            t.addRow({toString(kernel), base,
                      fmtRatio(roll.speedup.value()),
                      fmtRatio(roll.speedupStat.maxOr(0.0)),
                      fmtRatio(roll.energyReduction.value()),
                      fmtRatio(roll.energyReductionStat.maxOr(0.0)),
                      fmtRatio(roll.energyEfficiency.value()),
                      fmtRatio(roll.energyEfficiencyStat.maxOr(0.0))});
        };
        emit("DS-STC", vs_ds);
        emit("RM-STC", vs_rm);
        t.addSeparator();
    }

    rec.span("report.table", [&] {
        std::ofstream(dir + "/table.txt") << t.render();
    });
    rec.span("report.bench_json",
             [&] { ctx.results().dumpJson(dir + "/bench.json"); });
    out.counts["report.rows"] = static_cast<double>(rec.span(
        "report.warehouse",
        [&] { return writeWarehouse(ctx.results(), dir + "/warehouse"); }));
    rec.end(root);
    std::filesystem::remove_all(dir);

    out.paper = {
        {"speedup vs DS-STC", overall_ds_p.value(), 3.35},
        {"speedup vs RM-STC", overall_rm_p.value(), 2.21},
        {"energy efficiency vs DS-STC", overall_ds_ep.value(), 7.05},
        {"energy efficiency vs RM-STC", overall_rm_ep.value(), 2.96},
    };
    char line[256];
    std::snprintf(line, sizeof(line),
                  "Overall geomean (all kernels): speedup %.2fx vs "
                  "DS-STC, %.2fx vs RM-STC; energy efficiency %.2fx "
                  "vs DS-STC, %.2fx vs RM-STC.",
                  overall_ds_p.value(), overall_rm_p.value(),
                  overall_ds_ep.value(), overall_rm_ep.value());
    out.benchLines.push_back(line);
    return out;
}

void
forEachPlan(const Options &o, const PlanVisitor &visit)
{
    const std::vector<NamedMatrix> suite = makeCorpus(o, nullptr);
    std::size_t op = 0;
    for (const Kernel kernel : allKernels()) {
        for (const auto &nm : suite) {
            const driver::Prepared p(nm.name, nm.matrix);
            PlanInputs in;
            in.a = &p.bbc;
            in.b = &p.bbc; // SpGEMM: C = A * A, as runKernelLineup().
            in.x = &p.x50;
            visit(op++, *makeKernelPlan(kernel, in));
        }
    }
}

} // namespace

const Workload &
suiteLineup()
{
    static const Workload w{
        "suite_lineup",
        2026,
        {"driver.lineup"},
        &pass,
        &forEachPlan,
        MachineConfig::fp64(),
        nullptr,
    };
    return w;
}

} // namespace perfbench
