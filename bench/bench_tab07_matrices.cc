/**
 * @file
 * Table VII — the eight representative matrices (miniature
 * analogues): n, nnz(A), nnz(C) for C = A^2, and the average number
 * of intermediate products per T1 task (#inter-prod/blk, max 4096).
 */

#include <cstdio>

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "kernels/reference.hh"

using namespace unistc;

int
main(int, char **)
{
    TextTable t("Table VII: representative matrices "
                "(synthetic analogues, C = A^2)");
    t.setHeader({"Matrix A", "n(A)", "nnz(A)", "nnz(C)",
                 "#inter-prod/blk"});

    for (const auto &nm : representativeMatrices()) {
        const CsrMatrix &a = nm.matrix;
        const CsrMatrix c = spgemmSymbolic(a, a);
        const std::int64_t flops = spgemmFlops(a, a);

        // T1 tasks Algorithm 2 issues: matching block pairs.
        const BbcMatrix bbc = BbcMatrix::fromCsr(a);
        std::vector<std::int64_t> col_blocks(bbc.blockCols(), 0);
        for (int bc : bbc.colIdx())
            ++col_blocks[bc];
        std::int64_t pairs = 0;
        for (int bk = 0; bk < bbc.blockRows(); ++bk) {
            pairs += col_blocks[bk] *
                (bbc.rowPtr()[bk + 1] - bbc.rowPtr()[bk]);
        }
        const double inter = pairs
            ? static_cast<double>(flops) / static_cast<double>(pairs)
            : 0.0;

        t.addRow({nm.name, fmtCount(a.rows()), fmtCount(a.nnz()),
                  fmtCount(c.nnz()), fmtDouble(inter, 1)});
    }
    t.print();
    std::printf("\nPaper reference (full-size originals): "
                "inter-prod/blk rises from 164.9 (consph) to 1154.1 "
                "(gupta3).\n");
    return 0;
}
