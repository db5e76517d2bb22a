/**
 * @file
 * Tests for the deterministic RNG: reproducibility, range contracts
 * and rough distribution sanity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hh"

namespace unistc
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
    // bound 1 always yields 0.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextGaussian();
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.1);
}

TEST(Rng, SampleDistinctProperties)
{
    Rng rng(19);
    const auto s = rng.sampleDistinct(100, 20);
    ASSERT_EQ(s.size(), 20u);
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_GE(s[i], 0);
        EXPECT_LT(s[i], 100);
        if (i > 0) {
            EXPECT_LT(s[i - 1], s[i]); // sorted, distinct
        }
    }
}

TEST(Rng, SampleDistinctEdgeCases)
{
    Rng rng(23);
    EXPECT_TRUE(rng.sampleDistinct(10, 0).empty());
    const auto all = rng.sampleDistinct(5, 5);
    EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Floyd's algorithm with a linear membership test and a final sort:
// the original sampler, kept as the oracle for both production paths.
std::vector<int>
referenceSampleDistinct(Rng &rng, int n, int k)
{
    std::vector<int> chosen;
    for (int j = n - k; j < n; ++j) {
        const int t = static_cast<int>(rng.nextBelow(j + 1));
        if (std::find(chosen.begin(), chosen.end(), t) == chosen.end())
            chosen.push_back(t);
        else
            chosen.push_back(j);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

TEST(Rng, SampleDistinctMatchesLinearFloyd)
{
    // Widths straddle word boundaries; k covers both sides of the
    // bitmap rule (ceil(n/64) <= k) plus the empty and full samples.
    for (int n : {1, 4, 63, 64, 65, 147, 1024, 4608}) {
        const int words = (n + 63) / 64;
        for (int k : {0, 1, words - 1, words, n / 3, n}) {
            k = std::clamp(k, 0, n);
            for (std::uint64_t seed : {3u, 29u, 4040u}) {
                Rng fast(seed);
                Rng ref(seed);
                EXPECT_EQ(fast.sampleDistinct(n, k),
                          referenceSampleDistinct(ref, n, k))
                    << "n=" << n << " k=" << k << " seed=" << seed;
                // Same stream position: the paths made the same draws.
                EXPECT_EQ(fast.next(), ref.next())
                    << "n=" << n << " k=" << k << " seed=" << seed;
            }
        }
    }
}

// nextBelow as it was before its rejection threshold became lazy:
// the threshold 2^64 mod bound computed up front on every call.
std::uint64_t
referenceNextBelow(Rng &rng, std::uint64_t bound)
{
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

TEST(Rng, NextBelowMatchesEagerThreshold)
{
    // Bounds above 2^63 reject about half their draws (2^63 + 1) or a
    // quarter (3 * 2^62 + 1), so the path that computes the threshold
    // and rejects runs as well as the one that skips it.
    for (const std::uint64_t bound :
         {1ull, 2ull, 3ull, 13ull, (1ull << 31) - 1, (1ull << 32) + 1,
          (1ull << 63) + 1, 3 * (1ull << 62) + 1, ~0ull}) {
        for (const std::uint64_t seed : {3u, 29u, 4040u}) {
            Rng lazy(seed);
            Rng ref(seed);
            for (int i = 0; i < 256; ++i) {
                ASSERT_EQ(lazy.nextBelow(bound),
                          referenceNextBelow(ref, bound))
                    << "bound=" << bound << " seed=" << seed
                    << " draw " << i;
            }
            // Same stream position: both rejected the same draws.
            EXPECT_EQ(lazy.next(), ref.next())
                << "bound=" << bound << " seed=" << seed;
        }
    }
}

} // namespace
} // namespace unistc
