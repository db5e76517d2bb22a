#include "corpus/generators.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sparse/convert.hh"

namespace unistc
{

namespace
{

double
val(Rng &rng)
{
    return rng.nextDouble(0.1, 1.0);
}

} // namespace

CsrMatrix
genRandomUniform(int rows, int cols, double density,
                 std::uint64_t seed)
{
    UNISTC_ASSERT(density >= 0.0 && density <= 1.0,
                  "density out of range");
    Rng rng(seed);
    CooMatrix coo(rows, cols);
    if (density > 0.02) {
        // Dense-ish: per-entry Bernoulli.
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                if (rng.nextBool(density))
                    coo.add(r, c, val(rng));
            }
        }
    } else {
        // Sparse: sample a distinct column set per row.
        for (int r = 0; r < rows; ++r) {
            const double expect = density * cols;
            int k = static_cast<int>(std::floor(expect));
            if (rng.nextBool(expect - k))
                ++k;
            k = std::min(k, cols);
            for (int c : rng.sampleDistinct(cols, k))
                coo.add(r, c, val(rng));
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genBanded(int n, int half_bandwidth, double fill, std::uint64_t seed)
{
    Rng rng(seed);
    CooMatrix coo(n, n);
    for (int r = 0; r < n; ++r) {
        // 64-bit sum: a --gen half_bandwidth may be as large as INT_MAX.
        const int lo = std::max(0, r - half_bandwidth);
        const int hi = static_cast<int>(std::min<std::int64_t>(
            n - 1, std::int64_t{r} + half_bandwidth));
        for (int c = lo; c <= hi; ++c) {
            if (c == r || rng.nextBool(fill))
                coo.add(r, c, val(rng));
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genStencil2d(int grid, bool nine_point)
{
    const int n = grid * grid;
    CooMatrix coo(n, n);
    auto idx = [grid](int i, int j) { return i * grid + j; };
    for (int i = 0; i < grid; ++i) {
        for (int j = 0; j < grid; ++j) {
            const int me = idx(i, j);
            coo.add(me, me, nine_point ? 8.0 : 4.0);
            const int di[] = {-1, 1, 0, 0, -1, -1, 1, 1};
            const int dj[] = {0, 0, -1, 1, -1, 1, -1, 1};
            const int neighbors = nine_point ? 8 : 4;
            for (int d = 0; d < neighbors; ++d) {
                const int ni = i + di[d];
                const int nj = j + dj[d];
                if (ni >= 0 && ni < grid && nj >= 0 && nj < grid)
                    coo.add(me, idx(ni, nj), -1.0);
            }
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genPowerLaw(int n, double avg_degree, double alpha,
            std::uint64_t seed)
{
    UNISTC_ASSERT(alpha > 1.0, "power-law exponent must exceed 1");
    Rng rng(seed);

    // Zipf-like degree sequence scaled to the requested mean.
    std::vector<double> weight(n);
    double wsum = 0.0;
    for (int r = 0; r < n; ++r) {
        weight[r] = std::pow(static_cast<double>(r + 1), -1.0 / (alpha
                                                                 - 1.0));
        wsum += weight[r];
    }
    const double scale = avg_degree * n / wsum;

    CooMatrix coo(n, n);
    for (int r = 0; r < n; ++r) {
        // Capping at n before the cast keeps a huge avg_degree defined;
        // the row ends up full either way.
        const double expect = std::min(weight[r] * scale,
                                       static_cast<double>(n));
        int deg = static_cast<int>(std::floor(expect));
        if (rng.nextBool(expect - deg))
            ++deg;
        deg = std::clamp(deg, 1, n);
        for (int c : rng.sampleDistinct(n, deg))
            coo.add(r, c, val(rng));
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genBlockDense(int n, int block, double block_density, double fill,
              std::uint64_t seed)
{
    Rng rng(seed);
    CooMatrix coo(n, n);
    const int blocks = (n + block - 1) / block;
    for (int bi = 0; bi < blocks; ++bi) {
        for (int bj = std::max(0, bi - 3);
             bj <= std::min(blocks - 1, bi + 3); ++bj) {
            const bool on_diag = bi == bj;
            if (!on_diag && !rng.nextBool(block_density))
                continue;
            for (int r = bi * block;
                 r < std::min(n, (bi + 1) * block); ++r) {
                for (int c = bj * block;
                     c < std::min(n, (bj + 1) * block); ++c) {
                    if (r == c || rng.nextBool(fill))
                        coo.add(r, c, val(rng));
                }
            }
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genDiagonalHeavy(int n, int num_diags, std::uint64_t seed)
{
    Rng rng(seed);
    CooMatrix coo(n, n);
    // The main diagonal plus random offsets.
    std::vector<int> offsets = {0};
    for (int d = 1; d < num_diags; ++d) {
        offsets.push_back(
            static_cast<int>(rng.nextInRange(-n / 2, n / 2)));
    }
    for (int off : offsets) {
        for (int r = 0; r < n; ++r) {
            const int c = r + off;
            if (c >= 0 && c < n)
                coo.add(r, c, val(rng));
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genLongRows(int n, int num_long_rows, double long_density,
            double bg_density, std::uint64_t seed)
{
    Rng rng(seed);
    CooMatrix coo(n, n);
    std::vector<int> long_rows =
        Rng(seed ^ 0x517cc1b7ull).sampleDistinct(n,
                                                 std::min(num_long_rows,
                                                          n));
    std::vector<bool> is_long(n, false);
    for (int r : long_rows)
        is_long[r] = true;

    for (int r = 0; r < n; ++r) {
        const double density = is_long[r] ? long_density : bg_density;
        for (int c = 0; c < n; ++c) {
            if (c == r || rng.nextBool(density))
                coo.add(r, c, val(rng));
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genGraphLaplacian(int n, double avg_degree, double alpha,
                  std::uint64_t seed)
{
    const CsrMatrix adj = genPowerLaw(n, avg_degree, alpha, seed);
    // Symmetrise structurally and build L = D - A + 0.01 I.
    CooMatrix coo(n, n);
    std::vector<double> degree(n, 0.0);
    for (int r = 0; r < n; ++r) {
        for (std::int64_t i = adj.rowPtr()[r]; i < adj.rowPtr()[r + 1];
             ++i) {
            const int c = adj.colIdx()[i];
            if (c == r)
                continue;
            // Each directed edge contributes both orientations with
            // weight -0.5 (duplicates merge in normalize()).
            coo.add(r, c, -0.5);
            coo.add(c, r, -0.5);
            degree[r] += 0.5;
            degree[c] += 0.5;
        }
    }
    for (int r = 0; r < n; ++r)
        coo.add(r, r, degree[r] + 0.01);
    return cooToCsr(std::move(coo));
}

CsrMatrix
genFemLongRows(int n, int half_bandwidth, double fill,
               int num_long_rows, double long_span,
               double long_density, std::uint64_t seed)
{
    Rng rng(seed);
    CooMatrix coo(n, n);
    const auto long_rows =
        Rng(seed ^ 0x2545F491ull).sampleDistinct(n, num_long_rows);
    std::vector<bool> is_long(n, false);
    for (int r : long_rows)
        is_long[r] = true;
    const int span = std::max(1, static_cast<int>(long_span * n));

    for (int r = 0; r < n; ++r) {
        const int lo = std::max(0, r - half_bandwidth);
        const int hi = std::min(n - 1, r + half_bandwidth);
        for (int c = lo; c <= hi; ++c) {
            if (c == r || rng.nextBool(fill))
                coo.add(r, c, val(rng));
        }
        if (is_long[r]) {
            // Dense window at a random offset: long rows keep their
            // nonzeros block-clustered, like FEM constraint rows.
            const int start = static_cast<int>(
                rng.nextBelow(std::max(1, n - span)));
            for (int c = start; c < start + span; ++c) {
                if ((c < lo || c > hi) && rng.nextBool(long_density))
                    coo.add(r, c, val(rng));
            }
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genArrow(int n, int head, double head_fill, int half_bandwidth,
         double band_fill, std::uint64_t seed)
{
    UNISTC_ASSERT(head >= 0 && head <= n, "arrow head out of range");
    Rng rng(seed);
    CooMatrix coo(n, n);
    for (int r = 0; r < n; ++r) {
        const bool head_row = r < head;
        const int lo = std::max(0, r - half_bandwidth);
        const int hi = std::min(n - 1, r + half_bandwidth);
        for (int c = 0; c < n; ++c) {
            const bool in_head = head_row || c < head;
            const bool in_band = c >= lo && c <= hi;
            if (c == r) {
                coo.add(r, c, val(rng));
            } else if (in_head && rng.nextBool(head_fill)) {
                coo.add(r, c, val(rng));
            } else if (in_band && rng.nextBool(band_fill)) {
                coo.add(r, c, val(rng));
            }
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genRmat(int scale, int edges_per_vertex, double a, double b, double c,
        std::uint64_t seed)
{
    UNISTC_ASSERT(scale >= 1 && scale <= 24, "R-MAT scale 1..24");
    const double d = 1.0 - a - b - c;
    UNISTC_ASSERT(a >= 0 && b >= 0 && c >= 0 && d >= -1e-12,
                  "R-MAT probabilities must sum to <= 1");
    Rng rng(seed);
    const int n = 1 << scale;
    const std::int64_t edges =
        static_cast<std::int64_t>(n) * edges_per_vertex;

    CooMatrix coo(n, n);
    for (std::int64_t e = 0; e < edges; ++e) {
        int r = 0, col = 0;
        for (int bit = scale - 1; bit >= 0; --bit) {
            const double p = rng.nextDouble();
            if (p < a) {
                // top-left quadrant
            } else if (p < a + b) {
                col |= 1 << bit;
            } else if (p < a + b + c) {
                r |= 1 << bit;
            } else {
                r |= 1 << bit;
                col |= 1 << bit;
            }
        }
        coo.add(r, col, val(rng));
    }
    // Duplicate edges merge (values sum) in normalize().
    return cooToCsr(std::move(coo));
}

CsrMatrix
lowerTriangular(const CsrMatrix &m)
{
    CooMatrix coo(m.rows(), m.cols());
    for (int r = 0; r < m.rows(); ++r) {
        for (std::int64_t i = m.rowPtr()[r]; i < m.rowPtr()[r + 1];
             ++i) {
            if (m.colIdx()[i] <= r)
                coo.add(r, m.colIdx()[i], m.vals()[i]);
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
symmetrize(const CsrMatrix &m)
{
    UNISTC_ASSERT(m.rows() == m.cols(),
                  "symmetrize needs a square matrix");
    CooMatrix coo(m.rows(), m.cols());
    for (int r = 0; r < m.rows(); ++r) {
        for (std::int64_t i = m.rowPtr()[r]; i < m.rowPtr()[r + 1];
             ++i) {
            const int c = m.colIdx()[i];
            coo.add(r, c, 0.5 * m.vals()[i]);
            coo.add(c, r, 0.5 * m.vals()[i]);
        }
    }
    return cooToCsr(std::move(coo));
}

void
randomizeValues(CsrMatrix &m, std::uint64_t seed)
{
    Rng rng(seed);
    for (auto &v : m.vals())
        v = val(rng);
}

CsrMatrix
generateFromSpec(const std::string &spec)
{
    const auto colon = spec.find(':');
    const std::string family = spec.substr(0, colon);

    // Parse the comma-separated numeric fields strictly: every field
    // (including the one after a trailing comma) must be a complete
    // number — std::stod leftovers, empty fields and overflow all
    // report the offending spec instead of throwing out of main().
    std::vector<double> args;
    if (colon != std::string::npos) {
        const std::string rest = spec.substr(colon + 1);
        std::size_t pos = 0;
        while (true) {
            const auto comma = rest.find(',', pos);
            const std::string field =
                comma == std::string::npos
                    ? rest.substr(pos)
                    : rest.substr(pos, comma - pos);
            double v = 0.0;
            std::size_t used = 0;
            bool ok = !field.empty();
            if (ok) {
                try {
                    v = std::stod(field, &used);
                } catch (const std::exception &) {
                    ok = false;
                }
            }
            if (ok && used != field.size())
                ok = false;
            if (ok && !std::isfinite(v))
                ok = false;
            if (!ok) {
                UNISTC_FATAL("malformed --gen spec '", spec,
                             "': bad numeric field '", field, "'");
            }
            args.push_back(v);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }

    // Range-check every field before it is cast or handed to a
    // generator, so out-of-range input is a fatal naming the field
    // rather than a generator assertion or an out-of-range cast.
    auto arg = [&](std::size_t i, double dflt) {
        return i < args.size() ? args[i] : dflt;
    };
    auto reject = [&](const char *name, double v,
                      const std::string &domain) {
        UNISTC_FATAL("malformed --gen spec '", spec, "': ", name, " ", v,
                     " is not ", domain);
    };
    auto size = [&](std::size_t i, double dflt, const char *name,
                    int lo, int hi) {
        const double v = arg(i, dflt);
        if (v != std::floor(v) || v < lo || v > hi) {
            reject(name, v,
                   "an integer in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
        }
        return static_cast<int>(v);
    };
    auto fraction = [&](std::size_t i, double dflt, const char *name) {
        const double v = arg(i, dflt);
        if (v < 0.0 || v > 1.0)
            reject(name, v, "in [0, 1]");
        return v;
    };
    constexpr int int_max = std::numeric_limits<int>::max();
    if (family == "banded") {
        const int n = size(0, 1024, "n", 1, int_max);
        const int hb = size(1, 16, "half_bandwidth", 0, int_max);
        return genBanded(n, hb, fraction(2, 0.5, "fill"), 1);
    }
    if (family == "random") {
        const int n = size(0, 1024, "n", 1, int_max);
        return genRandomUniform(n, n, fraction(1, 0.01, "density"), 1);
    }
    if (family == "powerlaw") {
        const int n = size(0, 1024, "n", 1, int_max);
        const double degree = arg(1, 8.0);
        const double alpha = arg(2, 2.3);
        if (degree <= 0.0)
            reject("avg_degree", degree, "> 0");
        if (alpha <= 1.0)
            reject("alpha", alpha, "> 1");
        return genPowerLaw(n, degree, alpha, 1);
    }
    if (family == "stencil") {
        // The matrix has grid^2 rows, which must fit an int too.
        return genStencil2d(size(0, 32, "grid", 1, 46340));
    }
    UNISTC_FATAL("malformed --gen spec '", spec,
                 "': unknown generator family '", family, "'");
}

} // namespace unistc
