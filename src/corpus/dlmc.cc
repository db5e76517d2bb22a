#include "corpus/dlmc.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sparse/convert.hh"

namespace unistc
{

CsrMatrix
genPrunedWeights(int rows, int cols, double sparsity,
                 std::uint64_t seed)
{
    UNISTC_ASSERT(sparsity >= 0.0 && sparsity < 1.0,
                  "sparsity out of range");
    Rng rng(seed);
    const double keep = 1.0 - sparsity;
    const double expect = keep * cols;
    // Rows arrive in order, each with sorted distinct columns and
    // values of magnitude >= 0.05, so the CSR arrays are appended
    // directly: a COO round trip would find nothing to sort, merge or
    // drop. No row keeps more than floor(expect) + 1 entries.
    const int k_max = std::min(cols, static_cast<int>(expect) + 1);
    std::vector<std::int64_t> row_ptr{0};
    std::vector<int> col_idx;
    std::vector<double> vals;
    row_ptr.reserve(rows + 1);
    col_idx.reserve(static_cast<std::size_t>(rows) * k_max);
    vals.reserve(static_cast<std::size_t>(rows) * k_max);
    for (int r = 0; r < rows; ++r) {
        // Row population ~ Binomial(cols, keep), clamped to >= 1.
        int k = static_cast<int>(std::floor(expect));
        if (rng.nextBool(expect - k))
            ++k;
        k = std::clamp(k, 1, cols);
        for (int c : rng.sampleDistinct(cols, k)) {
            // Magnitude-pruned survivors are bounded away from zero.
            const double mag = 0.05 + std::fabs(rng.nextGaussian());
            col_idx.push_back(c);
            vals.push_back(rng.nextBool(0.5) ? mag : -mag);
        }
        row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
    }
    return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(vals));
}

CsrMatrix
genStructured24(int rows, int cols, std::uint64_t seed)
{
    UNISTC_ASSERT(cols % 4 == 0,
                  "2:4 structure needs cols divisible by 4");
    Rng rng(seed);
    CooMatrix coo(rows, cols);
    for (int r = 0; r < rows; ++r) {
        for (int g = 0; g < cols; g += 4) {
            // Exactly two survivors per 4-wide group.
            const auto keep = rng.sampleDistinct(4, 2);
            for (int k : keep) {
                const double mag = 0.05 + std::fabs(rng.nextGaussian());
                coo.add(r, g + k, rng.nextBool(0.5) ? mag : -mag);
            }
        }
    }
    return cooToCsr(std::move(coo));
}

} // namespace unistc
