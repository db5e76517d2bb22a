/**
 * @file
 * Fig. 20 — performance/energy-efficiency distribution over the
 * synthetic SuiteSparse-style corpus as a function of computational
 * density (average intermediate products per T1 task). RM-STC and
 * Uni-STC are normalised to DS-STC. The paper's shape: near parity
 * for extremely sparse matrices (single-cycle T1 tasks), growing
 * Uni-STC advantage as density rises, convergence of utilisation at
 * the dense end where Uni-STC instead banks energy by gating DPGs.
 */

#include <cstdio>

#include <map>

#include "bench_common.hh"
#include "corpus/suite.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const int scale = bench::quickMode() ? 1 : 2;
    const auto suite = syntheticSuite(scale);

    // DS / RM / Uni share one task stream per (kernel, matrix).
    const auto ds = makeStcModel("DS-STC", cfg);
    const auto rm = makeStcModel("RM-STC", cfg);
    const auto uni = makeStcModel("Uni-STC", cfg);
    const std::vector<const StcModel *> lineup = {ds.get(), rm.get(),
                                                  uni.get()};

    for (const Kernel kernel : allKernels()) {
        struct Bucket
        {
            GeoMean rm_p, rm_ep, uni_p, uni_ep;
            int n = 0;
        };
        // Buckets over log2 of inter-products per T1 task.
        std::map<int, Bucket> buckets;

        for (const auto &nm : suite) {
            const Prepared p(nm.name, nm.matrix);
            const std::vector<RunResult> rs =
                bench::runKernelLineup(kernel, lineup, p);
            const RunResult &rd = rs[0];
            const RunResult &rr = rs[1];
            const RunResult &ru = rs[2];
            if (rd.tasksT1 == 0)
                continue;
            const double density = interProductsPerT1(rd);
            int b = 0;
            while ((1 << (b + 1)) <= density && b < 11)
                ++b;
            Bucket &bucket = buckets[b];
            const Comparison crm = compare(rd, rr);
            const Comparison cuni = compare(rd, ru);
            bucket.rm_p.add(crm.speedup);
            bucket.rm_ep.add(crm.energyEfficiency);
            bucket.uni_p.add(cuni.speedup);
            bucket.uni_ep.add(cuni.energyEfficiency);
            ++bucket.n;
        }

        TextTable t(std::string("Fig. 20 [") + toString(kernel) +
                    "]: geomean vs DS-STC by inter-products/T1-task");
        t.setHeader({"density bucket", "matrices", "RM-STC P",
                     "RM-STC ExP", "Uni-STC P", "Uni-STC ExP"});
        for (const auto &[b, bucket] : buckets) {
            char label[48];
            std::snprintf(label, sizeof(label), "[%d, %d)", 1 << b,
                          1 << (b + 1));
            t.addRow({label, std::to_string(bucket.n),
                      fmtRatio(bucket.rm_p.value()),
                      fmtRatio(bucket.rm_ep.value()),
                      fmtRatio(bucket.uni_p.value()),
                      fmtRatio(bucket.uni_ep.value())});
        }
        t.print();
        std::printf("\n");
    }
    return 0;
}
