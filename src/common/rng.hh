/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every workload generator in the repository takes an explicit seed and
 * uses this engine so that all experiments are bit-reproducible across
 * runs and platforms (std::mt19937 distributions are not guaranteed to
 * be identical across standard libraries, so the distributions here are
 * hand-rolled as well).
 */

#ifndef UNISTC_COMMON_RNG_HH
#define UNISTC_COMMON_RNG_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace unistc
{

/**
 * xoshiro256** engine seeded via SplitMix64. Small, fast and with
 * well-understood statistical quality; more than adequate for workload
 * synthesis.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using rejection sampling. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1): 53 high-quality bits. */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi);

    /** Bernoulli trial with probability @p p. */
    bool nextBool(double p) { return nextDouble() < p; }

    /** Standard normal variate (Box-Muller, no caching). */
    double nextGaussian();

    /**
     * Sample @p k distinct integers from [0, n) in increasing order
     * (Floyd's algorithm, k draws). When a bitmap over [0, n) is no
     * larger than the result (ceil(n/64) <= k) membership is a bit
     * test and the picks come out of a bitmap scan; otherwise a
     * linear test and a sort of the k picks. Both paths make the same
     * draws and return the same picks.
     */
    std::vector<int> sampleDistinct(int n, int k);

  private:
    std::uint64_t s_[4];
};

} // namespace unistc

#endif // UNISTC_COMMON_RNG_HH
