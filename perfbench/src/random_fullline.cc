/**
 * @file
 * random_fullline: the Fig. 16 sweep of bench_fig16_random. At each
 * sparsity point two uniform random matrices are generated and
 * converted to BBC, and one KernelPipeline::run() drives the SpGEMM
 * stream through all seven architectures.
 */

#include <cstdio>

#include "bench.hh"
#include "bbc/bbc_matrix.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "digest.hh"
#include "engine/kernel_pipeline.hh"
#include "runner/report.hh"
#include "runner/spgemm_runner.hh"
#include "stc/registry.hh"

namespace perfbench
{

namespace
{

using namespace unistc;

const std::vector<double> kSparsities = {0.5,  0.7,  0.9,
                                         0.95, 0.99, 0.998};

/** Fig. 16's published Uni-STC speedups over each baseline. */
double
paperSpeedup(const std::string &model)
{
    const std::vector<std::pair<std::string, double>> paper = {
        {"GAMMA", 1.67},  {"SIGMA", 1.73},  {"Trapezoid", 1.13},
        {"NV-DTC", 2.89}, {"DS-STC", 1.89}, {"RM-STC", 1.39},
    };
    for (const auto &[name, value] : paper) {
        if (name == model)
            return value;
    }
    return 0.0;
}

int
edge(const Options &o)
{
    return o.small ? 256 : 512;
}

/** The two operands of one sparsity point (A from seed, B seed+1). */
std::pair<CsrMatrix, CsrMatrix>
operands(const Options &o, double sparsity)
{
    const int n = edge(o);
    return {genRandomUniform(n, n, 1.0 - sparsity, o.seed),
            genRandomUniform(n, n, 1.0 - sparsity, o.seed + 1)};
}

PassResult
pass(const Options &o, Recorder &rec, ModelClock *clock)
{
    PassResult out;
    const MachineConfig cfg = MachineConfig::fp64();
    const std::vector<std::string> names = allModelNames();

    out.firstSpan = rec.spans().size();
    const int root = rec.begin("pass");
    const Lineup lineup(names, cfg, clock);
    std::vector<KernelPipeline::ModelSlot> slots;
    for (const StcModel *m : lineup.models())
        slots.push_back({m, nullptr});

    std::vector<GeoMean> uni_speedup(names.size());
    for (const double sparsity : kSparsities) {
        const auto [a, b] = rec.span("corpus.generate",
                                     [&] { return operands(o, sparsity); });
        out.counts["corpus.matrices"] += 2;
        out.counts["corpus.nnz"] +=
            static_cast<double>(a.nnz() + b.nnz());
        const BbcMatrix ab =
            rec.span("bbc.from_csr", [&] { return BbcMatrix::fromCsr(a); });
        const BbcMatrix bb =
            rec.span("bbc.from_csr", [&] { return BbcMatrix::fromCsr(b); });
        out.counts["bbc.blocks"] +=
            static_cast<double>(ab.numBlocks() + bb.numBlocks());

        const std::vector<RunResult> rs = rec.span("engine.run", [&] {
            const SpgemmPlan plan(ab, bb);
            return KernelPipeline::run(plan, slots);
        });

        Op op;
        op.name = "SpGEMM/" + fmtPercent(sparsity, 1);
        Digest d;
        for (std::size_t m = 0; m < rs.size(); ++m) {
            d.add(rs[m]);
            op.products.push_back(rs[m].products);
            out.taskEvals += static_cast<double>(rs[m].tasksT1);
            out.counts["model." + slug(names[m]) + ".sim_cycles"] +=
                static_cast<double>(rs[m].cycles);
        }
        op.digest = d.value();
        out.ops.push_back(std::move(op));
        out.counts["engine.tasks"] += static_cast<double>(rs[0].tasksT1);

        // Uni-STC is the last model; accumulate its speedups.
        const std::uint64_t uni = rs.back().cycles;
        for (std::size_t i = 0; i + 1 < names.size(); ++i) {
            if (uni > 0 && rs[i].cycles > 0) {
                uni_speedup[i].add(static_cast<double>(rs[i].cycles) /
                                   static_cast<double>(uni));
            }
        }
    }
    rec.end(root);

    for (std::size_t i = 0; i + 1 < names.size(); ++i) {
        char line[64];
        std::snprintf(line, sizeof(line), "  vs %-10s %.2fx",
                      names[i].c_str(), uni_speedup[i].value());
        out.benchLines.push_back(line);
        out.paper.push_back({"speedup vs " + names[i],
                             uni_speedup[i].value(),
                             paperSpeedup(names[i])});
    }
    return out;
}

void
forEachPlan(const Options &o, const PlanVisitor &visit)
{
    std::size_t op = 0;
    for (const double sparsity : kSparsities) {
        const auto [a, b] = operands(o, sparsity);
        const BbcMatrix ab = BbcMatrix::fromCsr(a);
        const BbcMatrix bb = BbcMatrix::fromCsr(b);
        visit(op++, SpgemmPlan(ab, bb));
    }
}

} // namespace

const Workload &
randomFullline()
{
    static const Workload w{
        "random_fullline",
        616,
        {"engine.run"},
        &pass,
        &forEachPlan,
        MachineConfig::fp64(),
        nullptr,
    };
    return w;
}

} // namespace perfbench
