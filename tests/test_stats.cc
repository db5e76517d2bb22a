/**
 * @file
 * Tests for the statistics accumulators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/stats.hh"
#include "sim/result.hh"
#include "warehouse/schema.hh"

namespace unistc
{
namespace
{

TEST(RunningStat, BasicAccumulation)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(4.0);
    s.add(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 12.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat a, b, all;
    for (int i = 0; i < 10; ++i) {
        const double x = i * 1.5 - 3.0;
        (i < 5 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, empty;
    a.add(1.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    RunningStat c;
    c.merge(a);
    EXPECT_EQ(c.count(), 1u);
    EXPECT_DOUBLE_EQ(c.min(), 1.0);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(4, 0.0, 1.0);
    h.add(0.1);   // bucket 0
    h.add(0.3);   // bucket 1
    h.add(0.6);   // bucket 2
    h.add(0.9);   // bucket 3
    h.add(-5.0);  // clamps to 0
    h.add(2.0);   // clamps to 3
    EXPECT_EQ(h.totalCount(), 6u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_DOUBLE_EQ(h.bucketFraction(0), 2.0 / 6.0);
}

TEST(Histogram, EdgesAndWeights)
{
    Histogram h(4, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketHi(0), 0.25);
    EXPECT_DOUBLE_EQ(h.bucketLo(3), 0.75);
    h.add(0.5, 10);
    EXPECT_EQ(h.bucketCount(2), 10u);
    EXPECT_EQ(h.totalCount(), 10u);
}

TEST(Histogram, MergeAndScale)
{
    Histogram a(2, 0.0, 1.0);
    Histogram b(2, 0.0, 1.0);
    a.add(0.2);
    b.add(0.7, 3);
    a.merge(b);
    EXPECT_EQ(a.bucketCount(0), 1u);
    EXPECT_EQ(a.bucketCount(1), 3u);
    a.scale(2);
    EXPECT_EQ(a.bucketCount(0), 2u);
    EXPECT_EQ(a.bucketCount(1), 6u);
    EXPECT_EQ(a.totalCount(), 8u);
}

TEST(RunningStat, MaxOrOnEmptyStat)
{
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.maxOr(42.0), 42.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.maxOr(42.0), 3.0);
}

TEST(Histogram, NanGoesToOverflowTallyNotABucket)
{
    // Regression: casting NaN to int is UB; add() must route NaN to
    // the dedicated tally without touching buckets or totalCount.
    Histogram h(4, 0.0, 1.0);
    h.add(std::nan(""));
    h.add(std::nan(""), 3);
    EXPECT_EQ(h.totalCount(), 0u);
    EXPECT_EQ(h.nanCount(), 4u);
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(h.bucketCount(b), 0u);
    h.add(0.5);
    EXPECT_EQ(h.totalCount(), 1u);
    EXPECT_EQ(h.nanCount(), 4u);
}

TEST(Histogram, InfinitiesClampToEdgeBuckets)
{
    Histogram h(4, 0.0, 1.0);
    h.add(-std::numeric_limits<double>::infinity());
    h.add(std::numeric_limits<double>::infinity(), 2);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.totalCount(), 3u);
    EXPECT_EQ(h.nanCount(), 0u);
}

TEST(Histogram, NanTallyMergesAndScales)
{
    Histogram a(2, 0.0, 1.0);
    Histogram b(2, 0.0, 1.0);
    a.add(std::nan(""));
    b.add(std::nan(""), 2);
    a.merge(b);
    EXPECT_EQ(a.nanCount(), 3u);
    a.scale(2);
    EXPECT_EQ(a.nanCount(), 6u);
}

// Histogram::addRatio vs Histogram::add: the memoized form must land
// every (num, den) pair in exactly the bucket the double-math add()
// picks, over every shape the simulator uses. Denominators reach 128,
// the FP32 MAC count every FP32 run passes per cycle.
TEST(HistogramAddRatio, MatchesAddForAllRatios)
{
    // The simulator's utilisation histogram shape plus pathological
    // shapes (hi exactly 1.0, offset range).
    struct Shape {
        int buckets;
        double lo, hi;
    };
    for (const Shape &s :
         {Shape{4, 0.0, 1.0 + 1e-12}, Shape{4, 0.0, 1.0},
          Shape{7, 0.0, 1.0 + 1e-12}, Shape{5, 0.25, 0.75}}) {
        for (int den = 1; den <= 128; ++den) {
            Histogram via_add(s.buckets, s.lo, s.hi);
            Histogram via_ratio(s.buckets, s.lo, s.hi);
            for (int num = 0; num <= den; ++num) {
                via_add.add(static_cast<double>(num) / den);
                via_ratio.addRatio(num, den);
            }
            for (int b = 0; b < s.buckets; ++b) {
                ASSERT_EQ(via_ratio.bucketCount(b), via_add.bucketCount(b))
                    << "buckets=" << s.buckets << " den=" << den
                    << " bucket=" << b;
            }
            ASSERT_EQ(via_ratio.totalCount(), via_add.totalCount());
        }
    }
}

TEST(HistogramAddRatio, WeightedMatchesRepeatedAdd)
{
    Histogram a(4, 0.0, 1.0 + 1e-12);
    Histogram b(4, 0.0, 1.0 + 1e-12);
    for (int i = 0; i < 5; ++i)
        a.add(3.0 / 16.0);
    b.addRatio(3, 16, 5);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i));
}

// Feed every num in [0, den] to @p via_ratio through addRatio() and
// to @p via_add through add().
void
feedBoth(Histogram &via_ratio, Histogram &via_add, int den)
{
    for (int num = 0; num <= den; ++num) {
        via_ratio.addRatio(num, den);
        via_add.add(static_cast<double>(num) / den);
    }
}

void
expectSameBuckets(const Histogram &got, const Histogram &want)
{
    ASSERT_EQ(got.numBuckets(), want.numBuckets());
    for (int b = 0; b < got.numBuckets(); ++b)
        EXPECT_EQ(got.bucketCount(b), want.bucketCount(b)) << "bucket " << b;
    EXPECT_EQ(got.totalCount(), want.totalCount());
}

Histogram
utilShape()
{
    return Histogram(4, 0.0, 1.0 + 1e-12);
}

// The histogram keeps one num -> bucket map, for the last den; a new
// den rebuilds it, and returning to an earlier den rebuilds it again.
TEST(HistogramAddRatio, ChangingDenominatorRebuildsTheMap)
{
    Histogram via_ratio = utilShape();
    Histogram via_add = utilShape();
    for (const int den : {64, 128, 96, 64}) {
        SCOPED_TRACE("den " + std::to_string(den));
        feedBoth(via_ratio, via_add, den);
        expectSameBuckets(via_ratio, via_add);
    }
}

// The map travels with copies, assignment and merge-into-empty; a
// histogram decoded from a warehouse row starts without one. Each
// must keep matching add() on further addRatio() calls.
TEST(HistogramAddRatio, CopiedAndDecodedHistogramsMatchAdd)
{
    Histogram src = utilShape();
    Histogram src_ref = utilShape();
    feedBoth(src, src_ref, 64);

    Histogram copied(src);
    Histogram copied_ref(src_ref);
    Histogram assigned = utilShape();
    Histogram assigned_ref = utilShape();
    feedBoth(assigned, assigned_ref, 96);
    assigned = src;
    assigned_ref = src_ref;
    Histogram merged;
    Histogram merged_ref;
    merged.merge(src);
    merged_ref.merge(src_ref);

    RunResult packed;
    packed.utilHist = src;
    Result<RunResult> unpacked =
        warehouse::unpackResult(warehouse::packResult(packed));
    ASSERT_TRUE(unpacked.ok());
    Histogram decoded = unpacked.value().utilHist;
    Histogram decoded_ref(src_ref);

    struct Case {
        const char *name;
        Histogram *got, *want;
    };
    for (const Case &c : {Case{"copy", &copied, &copied_ref},
                          Case{"assignment", &assigned, &assigned_ref},
                          Case{"merge", &merged, &merged_ref},
                          Case{"warehouse row", &decoded, &decoded_ref},
                          Case{"source", &src, &src_ref}}) {
        SCOPED_TRACE(c.name);
        for (const int den : {64, 128, 64})
            feedBoth(*c.got, *c.want, den);
        expectSameBuckets(*c.got, *c.want);
    }
}

// Above 127 buckets the int8 map cannot hold a bucket index, so
// addRatio() falls back to add() itself.
TEST(HistogramAddRatio, WideHistogramFallsBackToAdd)
{
    Histogram via_ratio(200, 0.0, 1.0);
    Histogram via_add(200, 0.0, 1.0);
    for (const int den : {64, 128, 199, 64})
        feedBoth(via_ratio, via_add, den);
    expectSameBuckets(via_ratio, via_add);
}

// The per-cycle invariant: a cycle never retires more products than
// the MAC array has multipliers, or fewer than zero. The check is
// inline and stays on in every build type.
TEST(RecordCycleDeath, ProductsOutsideMacCountAbort)
{
    RunResult res;
    res.recordCycle(64, 64);
    EXPECT_DEATH(res.recordCycle(64, 65), "cycle products");
    EXPECT_DEATH(res.recordCycle(64, -1), "cycle products");
}

TEST(HistogramAddRatioDeath, RatioAboveOneAborts)
{
    Histogram h = utilShape();
    h.addRatio(3, 4); // the den-4 map exists: the hit path must refuse
    EXPECT_DEATH(h.addRatio(5, 4), "addRatio ratio out of range");
}

TEST(GeoMean, MatchesClosedForm)
{
    GeoMean g;
    g.add(2.0);
    g.add(8.0);
    EXPECT_NEAR(g.value(), 4.0, 1e-12);
    EXPECT_EQ(g.count(), 2u);
}

TEST(GeoMean, IgnoresNonPositive)
{
    GeoMean g;
    g.add(4.0);
    g.add(0.0);
    g.add(-1.0);
    EXPECT_EQ(g.count(), 1u);
    EXPECT_NEAR(g.value(), 4.0, 1e-12);
}

TEST(GeoMean, EmptyIsZero)
{
    GeoMean g;
    EXPECT_EQ(g.value(), 0.0);
}

TEST(Quantile, Interpolates)
{
    std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

} // namespace
} // namespace unistc
