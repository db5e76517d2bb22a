#include "bbc/block_pattern.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace unistc
{

BlockPattern
BlockPattern::dense(int width)
{
    UNISTC_ASSERT(width >= 1 && width <= kBlockSize,
                  "dense block width ", width, " out of [1, 16]");
    const auto row = static_cast<std::uint16_t>((1u << width) - 1u);
    BlockPattern p;
    for (int r = 0; r < kBlockSize; ++r)
        p.rows_[r] = row;
    return p;
}

BlockPattern
BlockPattern::random(Rng &rng, double density)
{
    BlockPattern p;
    for (int r = 0; r < kBlockSize; ++r) {
        for (int c = 0; c < kBlockSize; ++c) {
            if (rng.nextBool(density))
                p.set(r, c);
        }
    }
    return p;
}

std::uint16_t
BlockPattern::colBits(int c) const
{
    std::uint16_t out = 0;
    for (int r = 0; r < kBlockSize; ++r) {
        if (test(r, c))
            out = setBit(out, r);
    }
    return out;
}

int
BlockPattern::nnz() const
{
    return popcountBuffer16(rows_.data());
}

bool
BlockPattern::empty() const
{
    for (int r = 0; r < kBlockSize; ++r) {
        if (rows_[r])
            return false;
    }
    return true;
}

std::uint16_t
BlockPattern::tileBitmap() const
{
    std::uint16_t out = 0;
    for (int ti = 0; ti < kTilesPerEdge; ++ti) {
        for (int tj = 0; tj < kTilesPerEdge; ++tj) {
            if (tilePattern(ti, tj))
                out = setBit(out, bit4x4(ti, tj));
        }
    }
    return out;
}

std::uint16_t
BlockPattern::tilePattern(int ti, int tj) const
{
    std::uint16_t out = 0;
    for (int lr = 0; lr < kTileSize; ++lr) {
        const std::uint16_t row = rows_[ti * kTileSize + lr];
        const std::uint16_t nib =
            static_cast<std::uint16_t>((row >> (tj * kTileSize)) & 0xFu);
        out = static_cast<std::uint16_t>(out | (nib << (lr * 4)));
    }
    return out;
}

int
BlockPattern::tileNnz(int ti, int tj) const
{
    return popcount16(tilePattern(ti, tj));
}

BlockPattern
BlockPattern::transposed() const
{
    BlockPattern out;
    transpose16x16(rows_.data(), out.rows_.data());
    return out;
}

BlockPattern
BlockPattern::unionWith(const BlockPattern &other) const
{
    BlockPattern out;
    for (int r = 0; r < kBlockSize; ++r) {
        out.rows_[r] =
            static_cast<std::uint16_t>(rows_[r] | other.rows_[r]);
    }
    return out;
}

BlockPattern
blockProductPattern(const BlockPattern &a, const BlockPattern &b)
{
    BlockPattern c;
    for (int r = 0; r < kBlockSize; ++r) {
        std::uint16_t out_row = 0;
        forEachSetBit(a.rowBits(r),
                      [&](int k) { out_row |= b.rowBits(k); });
        c.setRowBits(r, out_row);
    }
    return c;
}

int
blockProductCount(const BlockPattern &a, const BlockPattern &b)
{
    std::uint16_t a_cols[kBlockSize];
    transpose16x16(a.rowData(), a_cols);
    int total = 0;
    for (int k = 0; k < kBlockSize; ++k)
        total += popcount16(a_cols[k]) * popcount16(b.rowBits(k));
    return total;
}

std::uint16_t
blockMvPattern(const BlockPattern &a, std::uint16_t x_mask)
{
    std::uint16_t y = 0;
    for (int r = 0; r < kBlockSize; ++r) {
        if (a.rowBits(r) & x_mask)
            y = setBit(y, r);
    }
    return y;
}

int
blockMvProductCount(const BlockPattern &a, std::uint16_t x_mask)
{
    return maskedPopcount16(a.rowData(), x_mask);
}

BlockPattern
vectorAsBlock(std::uint16_t x_mask)
{
    BlockPattern b;
    for (int k = 0; k < kBlockSize; ++k) {
        if ((x_mask >> k) & 1u)
            b.set(k, 0);
    }
    return b;
}

} // namespace unistc
