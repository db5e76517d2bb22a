/**
 * @file
 * Bit-manipulation helpers mirroring the simple hardware primitives the
 * paper's functional units rely on (popcounts, per-bit iteration,
 * bitmap transposes). All operate on 16-bit words because every bitmap
 * in Uni-STC (tile-level and element-level) is a 4x4 = 16-bit map, and
 * a 16x16 block is sixteen such words, one per row.
 */

#ifndef UNISTC_COMMON_BITOPS_HH
#define UNISTC_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>
#include <cstring>

namespace unistc
{

/**
 * Number of set bits in a 16-bit bitmap word: a SWAR sum of bit
 * pairs, then nibbles, then bytes. The build adds no ISA flags, and
 * without -mpopcnt an x86-64 std::popcount is a libgcc call.
 */
inline int
popcount16(std::uint16_t v)
{
    unsigned x = v;
    x -= (x >> 1) & 0x5555u;
    x = (x & 0x3333u) + ((x >> 2) & 0x3333u);
    x = (x + (x >> 4)) & 0x0F0Fu;
    return static_cast<int>((x + (x >> 8)) & 0x1Fu);
}

/** Number of set bits in a 64-bit word (the same SWAR sum). */
inline int
popcount64(std::uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return static_cast<int>((v * 0x0101010101010101ull) >> 56);
}

/** Total set bits across the 16 row words of a 16x16 bitmap. */
inline int
popcountBuffer16(const std::uint16_t words[16])
{
    int total = 0;
    for (int i = 0; i < 16; ++i)
        total += popcount16(words[i]);
    return total;
}

/** Sum of popcount(words[i] & mask) over the 16 row words. */
inline int
maskedPopcount16(const std::uint16_t words[16], std::uint16_t mask)
{
    int total = 0;
    for (int i = 0; i < 16; ++i)
        total += popcount16(static_cast<std::uint16_t>(words[i] & mask));
    return total;
}

/** True when bit @p idx (0 = LSB) is set. */
inline bool
testBit(std::uint16_t v, int idx)
{
    return (v >> idx) & 1u;
}

/** Return @p v with bit @p idx set. */
inline std::uint16_t
setBit(std::uint16_t v, int idx)
{
    return static_cast<std::uint16_t>(v | (1u << idx));
}

/** Call @p fn(bitIndex) for every set bit, LSB first. */
template <typename Fn>
inline void
forEachSetBit(std::uint16_t v, Fn &&fn)
{
    while (v) {
        const int idx = std::countr_zero(v);
        fn(idx);
        v = static_cast<std::uint16_t>(v & (v - 1u));
    }
}

/**
 * Interpret a 16-bit word as a 4x4 map in row-major order
 * (bit = r*4 + c) and extract row @p r as a 4-bit value.
 */
inline std::uint16_t
row4(std::uint16_t v, int r)
{
    return static_cast<std::uint16_t>((v >> (4 * r)) & 0xFu);
}

/** Bit index of (r, c) inside a row-major 4x4 bitmap. */
inline int
bit4x4(int r, int c)
{
    return r * 4 + c;
}

/**
 * Transpose a row-major 4x4 bitmap with two delta-swap rounds: the
 * first exchanges the off-diagonal bits of each 2x2 sub-block, the
 * second exchanges the off-diagonal 2x2 sub-blocks themselves.
 */
inline std::uint16_t
transpose4x4(std::uint16_t v)
{
    std::uint16_t t =
        static_cast<std::uint16_t>((v ^ (v >> 3)) & 0x0A0Au);
    v = static_cast<std::uint16_t>(v ^ t ^ (t << 3));
    t = static_cast<std::uint16_t>((v ^ (v >> 6)) & 0x00CCu);
    return static_cast<std::uint16_t>(v ^ t ^ (t << 6));
}

/** Extract column @p c of a row-major 4x4 bitmap as a 4-bit value. */
inline std::uint16_t
col4(std::uint16_t v, int c)
{
    return row4(transpose4x4(v), c);
}

/**
 * Transpose a 16x16 bit matrix: out[c] holds column c (bit r set when
 * in[r] has bit c). Safe with in == out.
 *
 * Hacker's Delight delta-swap transpose, 16-bit edition: four rounds
 * of exchanging j-strided sub-blocks, the 16x16 counterpart of
 * transpose4x4. The swap direction is mirrored relative to the book
 * (high bits of the upper row trade with low bits of the lower row)
 * because our bit convention has column 0 at the LSB, not the MSB.
 */
inline void
transpose16x16(const std::uint16_t in[16], std::uint16_t out[16])
{
    std::uint16_t a[16];
    std::memcpy(a, in, sizeof(a));
    std::uint16_t m = 0x00FFu;
    for (int j = 8; j != 0; j >>= 1,
             m = static_cast<std::uint16_t>(m ^ (m << j))) {
        for (int k = 0; k < 16; k = (k + j + 1) & ~j) {
            const std::uint16_t t =
                static_cast<std::uint16_t>(((a[k] >> j) ^ a[k + j]) &
                                           m);
            a[k] = static_cast<std::uint16_t>(a[k] ^ (t << j));
            a[k + j] = static_cast<std::uint16_t>(a[k + j] ^ t);
        }
    }
    std::memcpy(out, a, sizeof(a));
}

/** Ceiling division for non-negative integers. */
inline std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace unistc

#endif // UNISTC_COMMON_BITOPS_HH
