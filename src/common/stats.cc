#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace unistc
{

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
}

double
RunningStat::min() const
{
    UNISTC_ASSERT(count_ > 0, "min() on empty RunningStat");
    return min_;
}

double
RunningStat::max() const
{
    UNISTC_ASSERT(count_ > 0, "max() on empty RunningStat");
    return max_;
}

double
RunningStat::maxOr(double fallback) const
{
    return count_ > 0 ? max_ : fallback;
}

double
RunningStat::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

Histogram::Histogram(int buckets, double lo, double hi)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    UNISTC_ASSERT(buckets > 0 && std::isfinite(lo) &&
                  std::isfinite(hi) && hi > lo,
                  "bad histogram shape");
}

namespace
{

/** Bucket of finite @p x: the arithmetic add() and addRatio() share. */
int
bucketOf(double x, double lo, double hi, std::size_t buckets)
{
    const int last = static_cast<int>(buckets) - 1;
    if (x <= lo)
        return 0;
    if (x >= hi)
        return last;
    const double width = (hi - lo) / buckets;
    return std::clamp(static_cast<int>(std::floor((x - lo) / width)), 0,
                      last);
}

} // namespace

void
Histogram::add(double x, std::uint64_t weight)
{
    UNISTC_ASSERT(!counts_.empty(), "add() on default histogram");
    // NaN must never reach the float->int cast in bucketOf (UB); it
    // gets its own tally. Infinities clamp like any out-of-range
    // sample.
    if (std::isnan(x)) {
        nan_ += weight;
        return;
    }
    counts_[bucketOf(x, lo_, hi_, counts_.size())] += weight;
    total_ += weight;
}

void
Histogram::addRatioSlow(int num, int den, std::uint64_t weight)
{
    UNISTC_ASSERT(!counts_.empty(), "addRatio() on default histogram");
    UNISTC_ASSERT(den > 0 && num >= 0 && num <= den,
                  "addRatio ratio out of range");
    if (counts_.size() > 127) { // int8 map; huge shapes stay exact
        add(static_cast<double>(num) / den, weight);
        return;
    }
    // A new denominator: map every num in [0, den] to the bucket
    // add() picks for num / den. The shape never changes after
    // construction, so the map stays valid until den changes.
    ratioDen_ = den;
    ratioBucket_.resize(static_cast<std::size_t>(den) + 1);
    for (int n = 0; n <= den; ++n) {
        ratioBucket_[n] = static_cast<std::int8_t>(
            bucketOf(static_cast<double>(n) / den, lo_, hi_,
                     counts_.size()));
    }
    counts_[ratioBucket_[num]] += weight;
    total_ += weight;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.counts_.empty())
        return;
    if (counts_.empty()) {
        *this = other;
        return;
    }
    UNISTC_ASSERT(counts_.size() == other.counts_.size() &&
                  lo_ == other.lo_ && hi_ == other.hi_,
                  "merging differently shaped histograms");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    nan_ += other.nan_;
}

void
Histogram::scale(std::uint64_t factor)
{
    for (auto &c : counts_)
        c *= factor;
    total_ *= factor;
    nan_ *= factor;
}

double
Histogram::bucketFraction(int b) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(b)) /
        static_cast<double>(total_);
}

double
Histogram::bucketLo(int b) const
{
    const double width = (hi_ - lo_) / counts_.size();
    return lo_ + b * width;
}

double
Histogram::bucketHi(int b) const
{
    const double width = (hi_ - lo_) / counts_.size();
    return lo_ + (b + 1) * width;
}

void
GeoMean::add(double x)
{
    if (x <= 0.0)
        return;
    logSum_ += std::log(x);
    ++count_;
}

double
GeoMean::value() const
{
    if (count_ == 0)
        return 0.0;
    return std::exp(logSum_ / static_cast<double>(count_));
}

double
quantile(std::vector<double> values, double q)
{
    UNISTC_ASSERT(!values.empty(), "quantile of empty sample");
    UNISTC_ASSERT(q >= 0.0 && q <= 1.0, "quantile q out of range");
    std::sort(values.begin(), values.end());
    const double pos = q * (values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - lo;
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

} // namespace unistc
