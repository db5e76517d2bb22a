/**
 * @file
 * Buffer-capacity proofs: the paper's 144 B Meta Buffer, 2 KB A
 * buffer and 1 KB accumulator must accommodate every possible T1
 * task. Property-tested over random patterns plus the worst cases.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"

#include "buffers.hh"

namespace unistc
{
namespace
{

const MachineConfig kFp64 = MachineConfig::fp64();

TEST(Buffers, DenseWorstCaseFitsMetaBuffer)
{
    const BlockPattern d = BlockPattern::dense();
    // Dense blocks have all 16 tiles: A 50 B + B 50 B + C 34 B.
    EXPECT_EQ(metaBufferBytesMm(d, d), 134);
    EXPECT_LE(metaBufferBytesMm(d, d), kMetaBufferBytes);
    EXPECT_LE(metaBufferBytesMv(d), kMetaBufferBytes);
}

TEST(Buffers, RandomTasksAlwaysFit)
{
    Rng rng(4711);
    for (int trial = 0; trial < 200; ++trial) {
        const double density = rng.nextDouble(0.02, 1.0);
        const BlockPattern a = BlockPattern::random(rng, density);
        const BlockPattern b = BlockPattern::random(rng, density);
        EXPECT_LE(metaBufferBytesMm(a, b), kMetaBufferBytes);
        EXPECT_LE(aBufferBytes(a, kFp64), kMatrixABufferBytes);
        EXPECT_LE(accumBufferBytes(a, b, kFp64),
                  kAccumBufferBytes);
    }
}

TEST(Buffers, ABufferExactlyHoldsDenseBlock)
{
    // 16 x 16 FP64 values = 2048 B: the buffer is sized to the
    // densest possible block with zero slack.
    EXPECT_EQ(aBufferBytes(BlockPattern::dense(), kFp64),
              kMatrixABufferBytes);
}

TEST(Buffers, Fp32HalvesValueFootprint)
{
    const BlockPattern d = BlockPattern::dense();
    EXPECT_EQ(aBufferBytes(d, MachineConfig::fp32()),
              kMatrixABufferBytes / 2);
}

TEST(Buffers, EmptyTaskUsesMinimalMeta)
{
    const BlockPattern empty;
    EXPECT_EQ(metaBufferBytesMm(empty, empty), 6); // three Lv1 words
    EXPECT_EQ(accumBufferBytes(empty, empty, kFp64), 0);
}

TEST(Buffers, AccumulatorBoundedByMacCount)
{
    // Each live segment holds >= 1 product, so per-cycle segments
    // <= macCount and the worst case is 64 * 8 = 512 B at FP64.
    Rng rng(4712);
    for (int trial = 0; trial < 50; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.5);
        const BlockPattern b = BlockPattern::random(rng, 0.5);
        EXPECT_LE(accumBufferBytes(a, b, kFp64),
                  kFp64.macCount * 8);
    }
}

} // namespace
} // namespace unistc
