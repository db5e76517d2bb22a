/**
 * @file
 * Fig. 16 — MAC utilisation (reported as speedup-equivalent cycles)
 * of all seven architectures on uniform random matrices over a
 * sparsity sweep, SpGEMM C = A x B (the paper's random-matrix
 * methodology, downsized from 8192^2 to 512^2 — utilisation is a
 * per-block quantity, so the matrix edge only affects noise).
 *
 * Also reproduces the §VI-C-1 dense-workload energy comparison:
 * on dense blocks every design reaches 100% utilisation and the
 * energy ordering Uni-STC (0.94x of NV-DTC) > RM-STC (0.83x) >
 * DS-STC (0.67x) should reproduce as the same ranking.
 */

#include <cstdio>

#include "bench_common.hh"
#include "corpus/generators.hh"
#include "runner/spgemm_runner.hh"

using namespace unistc;

int
main(int, char **)
{
    const bool quick = bench::quickMode();
    const MachineConfig cfg = MachineConfig::fp64();
    const int n = quick ? 256 : 512;
    const auto names = allModelNames();
    // All seven architectures consume ONE SpGEMM task stream per
    // sparsity point, straight through the kernel pipeline.
    std::vector<StcModelPtr> owned;
    std::vector<KernelPipeline::ModelSlot> slots;
    for (const auto &name : names) {
        owned.push_back(makeStcModel(name, cfg));
        slots.push_back({owned.back().get(), nullptr});
    }

    TextTable t("Fig. 16: MAC utilisation on random matrices, "
                "SpGEMM C = A x B (" + std::to_string(n) + "^2)");
    std::vector<std::string> header = {"sparsity"};
    for (const auto &name : names)
        header.push_back(name);
    t.setHeader(header);

    std::vector<GeoMean> uni_speedup(names.size());
    for (double sparsity : {0.5, 0.7, 0.9, 0.95, 0.99, 0.998}) {
        const CsrMatrix a =
            genRandomUniform(n, n, 1.0 - sparsity, 616);
        const CsrMatrix b =
            genRandomUniform(n, n, 1.0 - sparsity, 617);
        const BbcMatrix ab = BbcMatrix::fromCsr(a);
        const BbcMatrix bb = BbcMatrix::fromCsr(b);

        const SpgemmPlan plan(ab, bb);
        const std::vector<RunResult> rs =
            KernelPipeline::run(plan, slots);
        std::vector<std::string> row = {fmtPercent(sparsity, 1)};
        std::vector<std::uint64_t> cycles(names.size(), 0);
        for (std::size_t i = 0; i < names.size(); ++i) {
            cycles[i] = rs[i].cycles;
            row.push_back(fmtPercent(rs[i].utilisation(), 1));
        }
        t.addRow(row);
        // Accumulate Uni-STC speedups over each baseline.
        const std::uint64_t uni = cycles.back();
        for (std::size_t i = 0; i + 1 < names.size(); ++i) {
            if (uni > 0 && cycles[i] > 0) {
                uni_speedup[i].add(static_cast<double>(cycles[i]) /
                                   static_cast<double>(uni));
            }
        }
    }
    t.print();

    std::printf("\nGeomean Uni-STC speedup over each baseline "
                "(sweep above):\n");
    for (std::size_t i = 0; i + 1 < names.size(); ++i) {
        std::printf("  vs %-10s %.2fx\n", names[i].c_str(),
                    uni_speedup[i].value());
    }
    std::printf("Paper reference: 1.67x GAMMA, 1.73x SIGMA, 1.13x "
                "Trapezoid, 2.89x NV-DTC, 1.89x DS-STC, 1.39x "
                "RM-STC.\n\n");

    // Dense-workload energy, normalised to NV-DTC (§VI-C-1).
    const int dn = quick ? 128 : 256;
    const CsrMatrix dense = genRandomUniform(dn, dn, 1.0, 618);
    const BbcMatrix dense_bbc = BbcMatrix::fromCsr(dense);
    TextTable e("Dense workload: utilisation and energy relative to "
                "NV-DTC");
    e.setHeader({"STC", "utilisation", "energy vs NV-DTC"});
    const std::vector<std::string> dense_names = {
        "NV-DTC", "DS-STC", "RM-STC", "Uni-STC"};
    std::vector<StcModelPtr> dense_owned;
    std::vector<KernelPipeline::ModelSlot> dense_slots;
    for (const auto &name : dense_names) {
        dense_owned.push_back(makeStcModel(name, cfg));
        dense_slots.push_back({dense_owned.back().get(), nullptr});
    }
    const SpgemmPlan dense_plan(dense_bbc, dense_bbc);
    const std::vector<RunResult> dense_rs =
        KernelPipeline::run(dense_plan, dense_slots);
    const double nv_energy = dense_rs[0].energy.total();
    for (std::size_t i = 0; i < dense_names.size(); ++i) {
        const RunResult &r = dense_rs[i];
        e.addRow({dense_names[i], fmtPercent(r.utilisation(), 1),
                  fmtRatio(nv_energy / r.energy.total())});
    }
    e.print();
    std::printf("Paper reference: Uni-STC 0.94x, RM-STC 0.83x, "
                "DS-STC 0.67x of NV-DTC's dense energy.\n");
    return 0;
}
