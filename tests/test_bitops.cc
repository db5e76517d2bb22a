/**
 * @file
 * Unit tests for the bit-manipulation primitives the bitmap pipeline
 * is built on: the 16x16 block kernels against test-local bitwise
 * definitions, and the 4x4 SWAR helpers exhaustively over all 65536
 * bitmaps.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"

namespace unistc
{
namespace
{

/**
 * Bitwise definition of the 16x16 transpose: out[c] bit r is in[r]
 * bit c. The oracle for transpose16x16.
 */
void
transposeByDefinition(const std::uint16_t in[16], std::uint16_t out[16])
{
    std::uint16_t cols[16] = {};
    for (int r = 0; r < 16; ++r) {
        for (int c = 0; c < 16; ++c) {
            if ((in[r] >> c) & 1u)
                cols[c] = static_cast<std::uint16_t>(cols[c] |
                                                     (1u << r));
        }
    }
    std::memcpy(out, cols, sizeof(cols));
}

/** The 16 row words of a uniformly random 16x16 bit matrix. */
std::array<std::uint16_t, 16>
randomRows(Rng &rng)
{
    std::array<std::uint16_t, 16> out;
    for (std::uint16_t &w : out)
        w = static_cast<std::uint16_t>(rng.nextInRange(0, 0xFFFF));
    return out;
}

TEST(Bitops, Popcount16)
{
    EXPECT_EQ(popcount16(0x0000), 0);
    EXPECT_EQ(popcount16(0xFFFF), 16);
    EXPECT_EQ(popcount16(0x0001), 1);
    EXPECT_EQ(popcount16(0x8001), 2);
    EXPECT_EQ(popcount16(0x5555), 8);
}

/** Bit-by-bit reference popcount. */
int
popcountByLoop(std::uint64_t v)
{
    int n = 0;
    for (int b = 0; b < 64; ++b)
        n += static_cast<int>((v >> b) & 1u);
    return n;
}

TEST(Bitops, Popcount16Exhaustive)
{
    for (unsigned v = 0; v <= 0xFFFF; ++v)
        ASSERT_EQ(popcount16(static_cast<std::uint16_t>(v)),
                  popcountByLoop(v))
            << "v=" << v;
}

TEST(Bitops, Popcount64)
{
    EXPECT_EQ(popcount64(0), 0);
    EXPECT_EQ(popcount64(~0ull), 64);
    for (int b = 0; b < 64; ++b)
        ASSERT_EQ(popcount64(1ull << b), 1) << "bit " << b;
    Rng rng(25);
    for (int trial = 0; trial < 10000; ++trial) {
        // AND or OR in up to three more words, so sparse and dense
        // words are drawn as well as half-full ones.
        std::uint64_t v = rng.next();
        for (int m = trial % 4; m > 0; --m)
            v = trial % 8 < 4 ? (v & rng.next()) : (v | rng.next());
        ASSERT_EQ(popcount64(v), popcountByLoop(v)) << "v=" << v;
    }
}

TEST(Bitops, TestAndSetBit)
{
    std::uint16_t v = 0;
    EXPECT_FALSE(testBit(v, 3));
    v = setBit(v, 3);
    EXPECT_TRUE(testBit(v, 3));
    EXPECT_FALSE(testBit(v, 2));
    v = setBit(v, 15);
    EXPECT_TRUE(testBit(v, 15));
    EXPECT_EQ(popcount16(v), 2);
}

TEST(Bitops, ForEachSetBitVisitsLsbFirst)
{
    std::vector<int> seen;
    forEachSetBit(0b1000'0000'0010'0100,
                  [&](int idx) { seen.push_back(idx); });
    EXPECT_EQ(seen, (std::vector<int>{2, 5, 15}));

    seen.clear();
    forEachSetBit(0, [&](int idx) { seen.push_back(idx); });
    EXPECT_TRUE(seen.empty());
}

TEST(Bitops, Row4AndCol4Agree)
{
    // Build a known 4x4 map: diagonal plus (0,3).
    std::uint16_t m = 0;
    for (int i = 0; i < 4; ++i)
        m = setBit(m, bit4x4(i, i));
    m = setBit(m, bit4x4(0, 3));

    EXPECT_EQ(row4(m, 0), 0b1001);
    EXPECT_EQ(row4(m, 1), 0b0010);
    EXPECT_EQ(col4(m, 3), 0b1001);
    EXPECT_EQ(col4(m, 0), 0b0001);
}

TEST(Bitops, Transpose4x4)
{
    std::uint16_t m = 0;
    m = setBit(m, bit4x4(0, 3));
    m = setBit(m, bit4x4(2, 1));
    const std::uint16_t t = transpose4x4(m);
    EXPECT_TRUE(testBit(t, bit4x4(3, 0)));
    EXPECT_TRUE(testBit(t, bit4x4(1, 2)));
    EXPECT_EQ(popcount16(t), 2);
    EXPECT_EQ(transpose4x4(t), m);
}

TEST(Bitops, Transpose16x16MatchesDefinitionOnBasis)
{
    // The delta swap uses only XOR, shifts and constant masks, so it
    // is linear over GF(2), as is the definition. Agreeing on the 256
    // single-bit matrices (a basis) and on zero proves agreement on
    // all 2^256 inputs.
    const std::uint16_t zero[16] = {};
    std::uint16_t got[16];
    transpose16x16(zero, got);
    for (int c = 0; c < 16; ++c)
        ASSERT_EQ(got[c], 0u) << "c=" << c;

    for (int r = 0; r < 16; ++r) {
        for (int c = 0; c < 16; ++c) {
            std::uint16_t in[16] = {};
            in[r] = static_cast<std::uint16_t>(1u << c);
            std::uint16_t want[16];
            transposeByDefinition(in, want);
            transpose16x16(in, got);
            ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0)
                << "r=" << r << " c=" << c;
        }
    }
}

TEST(Bitops, Transpose16x16RandomAndInvolution)
{
    Rng rng(25);
    for (int trial = 0; trial < 200; ++trial) {
        const auto rows = randomRows(rng);
        std::uint16_t want[16];
        transposeByDefinition(rows.data(), want);
        std::uint16_t got[16];
        transpose16x16(rows.data(), got);
        ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0)
            << "trial " << trial;
        std::uint16_t back[16];
        transpose16x16(got, back);
        ASSERT_EQ(std::memcmp(back, rows.data(), sizeof(back)), 0)
            << "trial " << trial;
    }
}

TEST(Bitops, Transpose16x16InPlace)
{
    Rng rng(26);
    for (int trial = 0; trial < 50; ++trial) {
        const auto rows = randomRows(rng);
        std::uint16_t want[16];
        transposeByDefinition(rows.data(), want);
        std::uint16_t buf[16];
        std::memcpy(buf, rows.data(), sizeof(buf));
        transpose16x16(buf, buf); // in == out must be safe
        ASSERT_EQ(std::memcmp(buf, want, sizeof(buf)), 0)
            << "trial " << trial;
    }
}

TEST(Bitops, PopcountBuffer16)
{
    const std::uint16_t zero[16] = {};
    EXPECT_EQ(popcountBuffer16(zero), 0);
    std::uint16_t full[16];
    for (std::uint16_t &w : full)
        w = 0xFFFFu;
    EXPECT_EQ(popcountBuffer16(full), 256);

    Rng rng(21);
    for (int trial = 0; trial < 100; ++trial) {
        const auto words = randomRows(rng);
        int naive = 0;
        for (const std::uint16_t w : words) {
            for (int b = 0; b < 16; ++b)
                naive += (w >> b) & 1;
        }
        ASSERT_EQ(popcountBuffer16(words.data()), naive)
            << "trial " << trial;
    }
}

TEST(Bitops, MaskedPopcount16)
{
    Rng rng(24);
    for (int trial = 0; trial < 100; ++trial) {
        const auto words = randomRows(rng);
        for (const std::uint16_t mask :
             {std::uint16_t{0x0000}, std::uint16_t{0xFFFF},
              std::uint16_t{0x1111}, std::uint16_t{0x8001},
              static_cast<std::uint16_t>(rng.nextInRange(0, 0xFFFF))}) {
            int naive = 0;
            for (const std::uint16_t w : words) {
                for (int b = 0; b < 16; ++b)
                    naive += (w >> b) & (mask >> b) & 1;
            }
            ASSERT_EQ(maskedPopcount16(words.data(), mask), naive)
                << "trial " << trial << " mask=" << mask;
        }
    }
}

TEST(Bitops, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(16, 16), 1u);
}

// SWAR 4x4 helpers vs their bitwise definitions (exhaustive: 65536).

TEST(BitopsSwar, Transpose4x4Exhaustive)
{
    for (unsigned v = 0; v <= 0xFFFF; ++v) {
        const std::uint16_t w = static_cast<std::uint16_t>(v);
        std::uint16_t naive = 0;
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                if (testBit(w, bit4x4(r, c)))
                    naive = setBit(naive, bit4x4(c, r));
            }
        }
        ASSERT_EQ(transpose4x4(w), naive) << "v=" << v;
    }
}

TEST(BitopsSwar, Col4Exhaustive)
{
    for (unsigned v = 0; v <= 0xFFFF; ++v) {
        const std::uint16_t w = static_cast<std::uint16_t>(v);
        for (int c = 0; c < 4; ++c) {
            std::uint16_t naive = 0;
            for (int r = 0; r < 4; ++r) {
                if (testBit(w, r * 4 + c))
                    naive = setBit(naive, r);
            }
            ASSERT_EQ(col4(w, c), naive) << "v=" << v << " c=" << c;
        }
    }
}

} // namespace
} // namespace unistc
