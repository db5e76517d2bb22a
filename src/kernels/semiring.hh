/**
 * @file
 * Semiring-generalised sparse kernels (extension). The paper's
 * motivating applications run sparse linear algebra over more than
 * the (+, x) ring: BFS uses the boolean (OR, AND) semiring and
 * shortest paths the tropical (min, +) semiring (§II-B's BFS row of
 * Table II; BerryBees [56]). The structural task stream — and hence
 * the STC cycle model — is identical for any semiring, so these
 * kernels let the applications compute exact results while reusing
 * the simulator unchanged.
 */

#ifndef UNISTC_KERNELS_SEMIRING_HH
#define UNISTC_KERNELS_SEMIRING_HH

#include <algorithm>
#include <limits>

#include "sparse/csr.hh"

namespace unistc
{

/**
 * Semiring concept: provides the additive identity (zero), the
 * "addition" (add) and "multiplication" (mul). Elements are doubles
 * throughout — enough for the graph semirings used here.
 */
struct PlusTimes
{
    static double zero() { return 0.0; }
    static double add(double a, double b) { return a + b; }
    static double mul(double a, double b) { return a * b; }
};

/** Boolean (OR, AND) semiring over {0, 1} encoded in doubles. */
struct BoolOrAnd
{
    static double zero() { return 0.0; }
    static double
    add(double a, double b)
    {
        return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    }
    static double
    mul(double a, double b)
    {
        return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    }
};

/** Tropical (min, +) semiring; zero is +infinity. */
struct MinPlus
{
    static double zero() { return std::numeric_limits<double>::infinity(); }
    static double add(double a, double b) { return std::min(a, b); }
    static double mul(double a, double b) { return a + b; }
};

/** y = A (.) x over semiring S, dense x. */
template <typename S>
std::vector<double>
spmvSemiring(const CsrMatrix &a, const std::vector<double> &x)
{
    std::vector<double> y(a.rows(), S::zero());
    for (int r = 0; r < a.rows(); ++r) {
        double acc = S::zero();
        for (std::int64_t i = a.rowPtr()[r]; i < a.rowPtr()[r + 1];
             ++i) {
            acc = S::add(acc, S::mul(a.vals()[i],
                                     x[a.colIdx()[i]]));
        }
        y[r] = acc;
    }
    return y;
}

/**
 * Single-source shortest paths over (min, +): iterate relaxations
 * x_{k+1} = min(x_k, A (.) x_k) until a fixed point. A(u, v) is the
 * weight of edge v->u when computing distances from the source along
 * out-edges of the transposed adjacency; pass the transpose of the
 * out-adjacency for the usual convention.
 *
 * @return per-vertex distances (infinity when unreachable) and the
 *         number of relaxation rounds executed.
 */
struct SsspResult
{
    std::vector<double> dist;
    int rounds = 0;
};

SsspResult ssspMinPlus(const CsrMatrix &adj_transposed, int source,
                       int max_rounds = -1);

} // namespace unistc

#endif // UNISTC_KERNELS_SEMIRING_HH
