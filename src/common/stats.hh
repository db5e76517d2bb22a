/**
 * @file
 * Light-weight statistics accumulators used by the simulator and the
 * benchmark harnesses: running min/mean/max, fixed-bucket histograms
 * (e.g. the 4-bucket MAC-utilisation breakdown in the paper's Fig. 5),
 * and geometric-mean accumulation for speedup aggregation.
 */

#ifndef UNISTC_COMMON_STATS_HH
#define UNISTC_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace unistc
{

/** Running scalar statistic: count, sum, min, max, mean. */
class RunningStat
{
  public:
    /** Fold one sample into the statistic. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

    /** min()/max() when samples exist, @p fallback when empty —
     * export paths must not assert on a zero-sample sweep. */
    double minOr(double fallback) const;
    double maxOr(double fallback) const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Histogram over equal-width buckets covering [lo, hi). Samples below
 * lo clamp to the first bucket and samples >= hi clamp to the last
 * (infinities included), so totalCount() equals the number of finite
 * comparisons made. NaN samples never reach a bucket: they land in a
 * dedicated overflow tally (nanCount()) instead of hitting the
 * undefined float→int cast the clamping math would otherwise make.
 */
class Histogram
{
  public:
    Histogram() = default;

    /** @param buckets number of buckets; @param lo/@param hi range. */
    Histogram(int buckets, double lo, double hi);

    /** Add @p weight samples of value @p x. */
    void add(double x, std::uint64_t weight = 1);

    /**
     * Add @p weight samples of the ratio @p num / @p den
     * (0 <= num <= den). Exactly equivalent to
     * add(double(num) / den, weight). The histogram keeps a
     * num -> bucket map for the last den it saw, built with add()'s
     * double arithmetic, so the per-cycle utilisation update (den is
     * the MAC count) is one table lookup.
     */
    void
    addRatio(int num, int den, std::uint64_t weight = 1)
    {
        // The map has ratioDen_ + 1 entries, so the unsigned compare
        // accepts exactly 0 <= num <= den; anything else, and every
        // call before the map exists, takes the checked slow path.
        if (den == ratioDen_ &&
            static_cast<std::size_t>(num) < ratioBucket_.size()) {
            counts_[ratioBucket_[num]] += weight;
            total_ += weight;
            return;
        }
        addRatioSlow(num, den, weight);
    }

    /** Merge a same-shaped histogram. */
    void merge(const Histogram &other);

    /** Multiply every bucket count by @p factor. */
    void scale(std::uint64_t factor);

    int numBuckets() const { return static_cast<int>(counts_.size()); }
    std::uint64_t bucketCount(int b) const { return counts_.at(b); }
    std::uint64_t totalCount() const { return total_; }

    /** NaN samples seen by add() (kept out of every bucket). */
    std::uint64_t nanCount() const { return nan_; }

    /** Fraction of samples in bucket @p b (0 when empty). */
    double bucketFraction(int b) const;

    /** Inclusive lower edge of bucket @p b. */
    double bucketLo(int b) const;

    /** Exclusive upper edge of bucket @p b. */
    double bucketHi(int b) const;

  private:
    /** Checks the ratio, rebuilds the map for @p den, then adds. */
    void addRatioSlow(int num, int den, std::uint64_t weight);

    double lo_ = 0.0;
    double hi_ = 1.0;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t nan_ = 0;

    /** addRatio()'s map: ratioBucket_[num] = bucket of num / ratioDen_. */
    int ratioDen_ = 0;
    std::vector<std::int8_t> ratioBucket_;
};

/** Geometric-mean accumulator (log-domain; ignores non-positive input). */
class GeoMean
{
  public:
    /** Fold one positive ratio into the mean. */
    void add(double x);

    std::uint64_t count() const { return count_; }
    double value() const;

  private:
    double logSum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** Quantile of a sample vector (copies + sorts; linear interpolation). */
double quantile(std::vector<double> values, double q);

} // namespace unistc

#endif // UNISTC_COMMON_STATS_HH
