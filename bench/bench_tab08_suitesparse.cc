/**
 * @file
 * Table VIII — performance (P), energy reduction (E) and energy
 * efficiency (ExP) of Uni-STC over DS-STC and RM-STC across the
 * corpus, reported as geomean ("Aver") and max per kernel. Paper
 * headline: 3.35x / 2.21x geomean speedup and 7.05x / 2.96x energy
 * efficiency over DS-STC / RM-STC.
 */

#include <cstdio>

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "corpus/suite.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const int scale = bench::quickMode() ? 1 : 2;
    auto suite = syntheticSuite(scale);
    for (auto &nm : representativeMatrices())
        suite.push_back(std::move(nm));

    TextTable t("Table VIII: Uni-STC vs baselines over the corpus "
                "(" + std::to_string(suite.size()) + " matrices)");
    t.setHeader({"Kernel", "Baseline", "P aver", "P max", "E aver",
                 "E max", "ExP aver", "ExP max"});

    // DS / RM / Uni share one task stream per (kernel, matrix).
    const auto ds = makeStcModel("DS-STC", cfg);
    const auto rm = makeStcModel("RM-STC", cfg);
    const auto uni = makeStcModel("Uni-STC", cfg);
    const std::vector<const StcModel *> lineup = {ds.get(), rm.get(),
                                                  uni.get()};

    GeoMean overall_ds_p, overall_rm_p, overall_ds_ep, overall_rm_ep;
    for (const Kernel kernel : allKernels()) {
        ComparisonRollup vs_ds, vs_rm;
        for (const auto &nm : suite) {
            const Prepared p(nm.name, nm.matrix);
            const std::vector<RunResult> rs =
                bench::runKernelLineup(kernel, lineup, p);
            const RunResult &rd = rs[0];
            const RunResult &rr = rs[1];
            const RunResult &ru = rs[2];
            if (ru.cycles == 0)
                continue;
            const Comparison cd = compare(rd, ru);
            const Comparison cr = compare(rr, ru);
            vs_ds.add(cd);
            vs_rm.add(cr);
            overall_ds_p.add(cd.speedup);
            overall_rm_p.add(cr.speedup);
            overall_ds_ep.add(cd.energyEfficiency);
            overall_rm_ep.add(cr.energyEfficiency);
        }
        // maxOr: a clamped corpus (UNISTC_CORPUS_CLAMP=0) or an
        // all-skipped kernel leaves the rollup empty; the row must
        // print zeros, not assert inside RunningStat::max().
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
    t.print();

    std::printf("\nOverall geomean (all kernels): speedup %.2fx vs "
                "DS-STC, %.2fx vs RM-STC; energy efficiency %.2fx "
                "vs DS-STC, %.2fx vs RM-STC.\n",
                overall_ds_p.value(), overall_rm_p.value(),
                overall_ds_ep.value(), overall_rm_ep.value());
    std::printf("Paper reference: 3.35x / 2.21x speedup and 7.05x / "
                "2.96x energy efficiency.\n");
    return 0;
}
