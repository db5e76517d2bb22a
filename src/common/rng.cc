#include "common/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace unistc
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    UNISTC_ASSERT(bound > 0, "nextBelow bound must be positive");
    // Rejection sampling to avoid modulo bias: a draw below
    // 2^64 mod bound is rejected. That threshold is below bound, so
    // only a draw below bound needs it, and the division that
    // computes it is skipped on almost every call.
    for (;;) {
        const std::uint64_t r = next();
        if (r >= bound || r >= (0 - bound) % bound)
            return r % bound;
    }
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    UNISTC_ASSERT(lo <= hi, "nextInRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1ull;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::nextGaussian()
{
    double u1 = nextDouble();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double u2 = nextDouble();
    const double two_pi = 6.28318530717958647692;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
}

std::vector<int>
Rng::sampleDistinct(int n, int k)
{
    UNISTC_ASSERT(k >= 0 && k <= n, "sampleDistinct requires 0 <= k <= n");
    std::vector<int> chosen;
    chosen.reserve(k);
    // Floyd's algorithm: O(k) samples, no O(n) shuffle. Draw j keeps
    // t = nextBelow(j + 1), or j itself when t is already taken; j is
    // always free, since every earlier pick is below it.
    const int words = n / 64 + (n % 64 != 0);
    if (words <= k) {
        // A bitmap over [0, n) is no larger than the result: test
        // membership in O(1) and scan it to emit the picks in order.
        std::vector<std::uint64_t> taken(words, 0);
        for (int j = n - k; j < n; ++j) {
            const int t = static_cast<int>(nextBelow(j + 1));
            const int pick = (taken[t / 64] >> (t % 64)) & 1 ? j : t;
            taken[pick / 64] |= 1ull << (pick % 64);
        }
        for (int w = 0; w < words; ++w) {
            for (std::uint64_t m = taken[w]; m != 0; m &= m - 1)
                chosen.push_back(w * 64 + std::countr_zero(m));
        }
        return chosen;
    }
    // Few picks from a wide range: a linear test and a sort of the k
    // picks cost less than a pass over the bitmap.
    for (int j = n - k; j < n; ++j) {
        const int t = static_cast<int>(nextBelow(j + 1));
        if (std::find(chosen.begin(), chosen.end(), t) == chosen.end())
            chosen.push_back(t);
        else
            chosen.push_back(j);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

} // namespace unistc
