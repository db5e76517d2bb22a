/**
 * @file
 * Exact RunResult comparison for tests that pin a model against a
 * reference implementation: every counter, traffic field and
 * utilisation bucket must match.
 */

#ifndef UNISTC_TESTS_RUN_RESULT_EQ_HH
#define UNISTC_TESTS_RUN_RESULT_EQ_HH

#include <gtest/gtest.h>

#include "sim/result.hh"

namespace unistc
{

inline void
expectSameResult(const RunResult &want, const RunResult &got)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.products, want.products);
    EXPECT_EQ(got.macSlots, want.macSlots);
    EXPECT_EQ(got.tasksT1, want.tasksT1);
    EXPECT_EQ(got.tasksT3, want.tasksT3);
    EXPECT_EQ(got.stallCycles, want.stallCycles);
    EXPECT_EQ(got.cNetScaleAccum, want.cNetScaleAccum);
    EXPECT_EQ(got.dpgActiveAccum, want.dpgActiveAccum);
    EXPECT_EQ(got.traffic.readsA, want.traffic.readsA);
    EXPECT_EQ(got.traffic.wastedA, want.traffic.wastedA);
    EXPECT_EQ(got.traffic.readsB, want.traffic.readsB);
    EXPECT_EQ(got.traffic.wastedB, want.traffic.wastedB);
    EXPECT_EQ(got.traffic.writesC, want.traffic.writesC);
    ASSERT_EQ(got.utilHist.numBuckets(), want.utilHist.numBuckets());
    for (int b = 0; b < want.utilHist.numBuckets(); ++b)
        EXPECT_EQ(got.utilHist.bucketCount(b),
                  want.utilHist.bucketCount(b));
    EXPECT_EQ(got.utilHist.totalCount(), want.utilHist.totalCount());
}

} // namespace unistc

#endif // UNISTC_TESTS_RUN_RESULT_EQ_HH
