/**
 * @file
 * Semiring-kernel tests: algebraic laws on random inputs, agreement
 * with the specialised implementations, and SSSP against Dijkstra.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <queue>

#include "common/rng.hh"
#include "corpus/generators.hh"
#include "kernels/reference.hh"
#include "kernels/semiring.hh"
#include "sparse/convert.hh"

namespace unistc
{
namespace
{

TEST(Semiring, PlusTimesMatchesSpmvRef)
{
    const CsrMatrix a = genRandomUniform(60, 60, 0.1, 991);
    Rng rng(992);
    std::vector<double> x(a.cols());
    for (auto &v : x)
        v = rng.nextDouble(-1.0, 1.0);
    const auto ys = spmvSemiring<PlusTimes>(a, x);
    const auto yr = spmvRef(a, x);
    EXPECT_LT(maxAbsDiff(ys, yr), 1e-12);
}

TEST(Semiring, BooleanSpmvIsReachability)
{
    // y[r] = 1 iff row r has an edge into the support of x.
    CooMatrix coo(5, 5);
    coo.add(0, 1, 1.0);
    coo.add(2, 3, 1.0);
    coo.add(4, 4, 1.0);
    const CsrMatrix a = cooToCsr(std::move(coo));
    std::vector<double> x = {0, 1, 0, 0, 0};
    const auto y = spmvSemiring<BoolOrAnd>(a, x);
    EXPECT_EQ(y, (std::vector<double>{1, 0, 0, 0, 0}));
}

TEST(Semiring, MinPlusIdentityElement)
{
    EXPECT_TRUE(std::isinf(MinPlus::zero()));
    EXPECT_EQ(MinPlus::add(3.0, MinPlus::zero()), 3.0);
    EXPECT_TRUE(std::isinf(MinPlus::mul(1.0, MinPlus::zero())));
}

std::vector<double>
dijkstra(const CsrMatrix &adj, int source)
{
    // adj(u, v) = weight of edge u -> v.
    std::vector<double> dist(
        adj.rows(), std::numeric_limits<double>::infinity());
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[source] = 0.0;
    pq.push({0.0, source});
    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[u])
            continue;
        for (std::int64_t i = adj.rowPtr()[u];
             i < adj.rowPtr()[u + 1]; ++i) {
            const int v = adj.colIdx()[i];
            const double nd = d + adj.vals()[i];
            if (nd < dist[v]) {
                dist[v] = nd;
                pq.push({nd, v});
            }
        }
    }
    return dist;
}

TEST(Sssp, MatchesDijkstraOnRandomGraphs)
{
    for (std::uint64_t seed : {995u, 996u, 997u}) {
        CsrMatrix adj = genPowerLaw(80, 5.0, 2.3, seed);
        randomizeValues(adj, seed + 1); // weights in [0.1, 1)
        const CsrMatrix adj_t = transposeCsr(adj);
        const SsspResult res = ssspMinPlus(adj_t, 0);
        const auto gold = dijkstra(adj, 0);
        ASSERT_EQ(res.dist.size(), gold.size());
        for (std::size_t v = 0; v < gold.size(); ++v) {
            if (std::isinf(gold[v]))
                EXPECT_TRUE(std::isinf(res.dist[v]));
            else
                EXPECT_NEAR(res.dist[v], gold[v], 1e-9);
        }
    }
}

TEST(Sssp, PathGraphDistances)
{
    CooMatrix coo(4, 4);
    coo.add(0, 1, 2.0);
    coo.add(1, 2, 3.0);
    coo.add(2, 3, 4.0);
    const CsrMatrix adj = cooToCsr(std::move(coo));
    const SsspResult res = ssspMinPlus(transposeCsr(adj), 0);
    EXPECT_EQ(res.dist[0], 0.0);
    EXPECT_EQ(res.dist[1], 2.0);
    EXPECT_EQ(res.dist[2], 5.0);
    EXPECT_EQ(res.dist[3], 9.0);
    EXPECT_LE(res.rounds, 4);
}

TEST(Sssp, DisconnectedStaysInfinite)
{
    CooMatrix coo(3, 3);
    coo.add(0, 1, 1.0);
    const CsrMatrix adj = cooToCsr(std::move(coo));
    const SsspResult res = ssspMinPlus(transposeCsr(adj), 0);
    EXPECT_TRUE(std::isinf(res.dist[2]));
}

} // namespace
} // namespace unistc
