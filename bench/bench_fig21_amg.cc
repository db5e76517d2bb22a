/**
 * @file
 * Fig. 21 — AMG case study: the SpMV (solve-phase) and SpGEMM
 * (setup-phase Galerkin product) kernel streams of the AMG solver,
 * simulated on every architecture and normalised to DS-STC. Two
 * operators cover the suite's spectrum: a regular 2D Poisson grid
 * and an irregular unstructured graph Laplacian (the "real-world
 * irregularity" that §VI-D says exposes load imbalance in grouped
 * MAC designs such as Trapezoid).
 *
 * Paper headline: Uni-STC 4.84x (SpMV) and 2.46x (SpGEMM); Trapezoid
 * reaches 4.15x on SpMV via dot-product acceleration but only 1.06x
 * on SpGEMM.
 */

#include <cstdio>

#include "apps/amg/amg.hh"
#include "apps/amg/amg_driver.hh"
#include "bench_common.hh"
#include "corpus/generators.hh"

using namespace unistc;

namespace
{

struct Case
{
    std::string name;
    AmgHierarchy hierarchy;
    int vcycles;
};

} // namespace

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const bool quick = bench::quickMode();
    const int grid = quick ? 24 : 40;
    const int graph_n = quick ? 800 : 2000;

    std::vector<Case> cases;
    {
        const CsrMatrix a = genStencil2d(grid, false);
        AmgHierarchy h(a);
        std::vector<double> b(a.rows(), 1.0);
        std::vector<double> x(a.rows(), 0.0);
        const AmgSolveStats stats = h.solve(x, b, 1e-8, 60);
        std::printf("Poisson %dx%d: %d levels, converged=%s in %d "
                    "V-cycles (residual %.2e)\n",
                    grid, grid, h.numLevels(),
                    stats.converged ? "yes" : "no", stats.iterations,
                    stats.finalResidual);
        cases.push_back({"Poisson grid", std::move(h),
                         stats.iterations});
    }
    {
        const CsrMatrix a = genGraphLaplacian(graph_n, 10.0, 2.1,
                                              2121);
        AmgHierarchy h(a);
        std::printf("Graph Laplacian n=%d: %d levels (fixed 30 "
                    "V-cycles for workload accounting)\n\n",
                    graph_n, h.numLevels());
        cases.push_back({"unstructured graph", std::move(h), 30});
    }

    // All seven architectures consume each AMG level's kernel stream
    // in one pass (simulateAmgLineup), instead of re-simulating the
    // hierarchy once per model.
    const auto names = allModelNames();
    std::vector<StcModelPtr> owned;
    std::vector<const StcModel *> lineup;
    std::size_t ds_idx = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        owned.push_back(makeStcModel(names[i], cfg));
        lineup.push_back(owned.back().get());
        if (names[i] == "DS-STC")
            ds_idx = i;
    }

    for (const Case &c : cases) {
        const std::vector<AmgWorkload> ws =
            simulateAmgLineup(lineup, c.hierarchy, c.vcycles);
        const AmgWorkload &wd = ws[ds_idx];
        TextTable t("Fig. 21 [" + c.name +
                    "]: AMG kernel speedup over DS-STC");
        t.setHeader({"STC", "SpMV speedup", "SpGEMM speedup"});
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (i == ds_idx)
                continue;
            const AmgWorkload &w = ws[i];
            t.addRow({names[i],
                      fmtRatio(static_cast<double>(wd.spmv.cycles) /
                               static_cast<double>(w.spmv.cycles)),
                      fmtRatio(
                          static_cast<double>(wd.spgemm.cycles) /
                          static_cast<double>(w.spgemm.cycles))});
        }
        t.print();
        std::printf("\n");
    }

    std::printf("Paper reference: Uni-STC 4.84x SpMV / 2.46x SpGEMM;"
                " Trapezoid 4.15x SpMV but only 1.06x SpGEMM.\n");
    return 0;
}
