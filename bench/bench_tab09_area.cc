/**
 * @file
 * Table IX — area breakdown of Uni-STC's dedicated modules and the
 * projected 432-unit deployment on an A100 die, plus the DPG-count
 * sweep the EED study (Fig. 22) divides by.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"
#include "sim/area.hh"

using namespace unistc;

int
main(int, char **)
{
    TextTable t("Table IX: Uni-STC area breakdown "
                "(432 units vs 826 mm2 A100 die)");
    t.setHeader({"Module", "Area (mm2)", "Percent (%)"});
    const auto items = AreaModel::uniStcBreakdown(8);
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i + 1 == items.size())
            t.addSeparator();
        t.addRow({items[i].module, fmtDouble(items[i].mm2, 4),
                  fmtDouble(items[i].percent, 2)});
    }
    t.print();

    std::printf("\nPaper reference: total 0.0425 mm2 per unit, "
                "2.12%% of the die for 432 units.\n\n");

    TextTable sweep("Dedicated-module overhead vs DPG count "
                    "(EED denominator, Fig. 22)");
    sweep.setHeader({"Design", "Overhead (mm2)"});
    sweep.addRow({"DS-STC", fmtDouble(AreaModel::dsStcOverheadMm2(),
                                      4)});
    sweep.addRow({"RM-STC", fmtDouble(AreaModel::rmStcOverheadMm2(),
                                      4)});
    for (int dpgs : {4, 8, 16}) {
        sweep.addRow({"Uni-STC (" + std::to_string(dpgs) + " DPGs)",
                      fmtDouble(AreaModel::uniStcOverheadMm2(dpgs),
                                4)});
    }
    sweep.print();
    return 0;
}
