#include "bbc/pattern_meta.hh"

#include "common/bitops.hh"

namespace unistc
{

PatternMeta
computePatternMeta(const BlockPattern &pattern)
{
    PatternMeta meta;

    std::array<std::uint16_t, kBlockSize> rows;
    for (int r = 0; r < kBlockSize; ++r)
        rows[r] = pattern.rowBits(r);

    transpose16x16(rows.data(), meta.cols.data());

    int total = 0;
    for (int i = 0; i < kBlockSize; ++i) {
        const int rc = popcount16(rows[i]);
        meta.rowCnt[i] = static_cast<std::uint8_t>(rc);
        meta.colCnt[i] =
            static_cast<std::uint8_t>(popcount16(meta.cols[i]));
        total += rc;
    }
    meta.nnz = static_cast<std::uint16_t>(total);

    // Tile (ti, tj): gather the tj-th nibble of the four rows in tile
    // row ti into a row-major 4x4 bitmap.
    for (int ti = 0; ti < kTilesPerEdge; ++ti) {
        for (int tj = 0; tj < kTilesPerEdge; ++tj) {
            std::uint16_t bits = 0;
            for (int lr = 0; lr < kTileSize; ++lr) {
                const std::uint16_t nib = static_cast<std::uint16_t>(
                    (rows[ti * kTileSize + lr] >> (4 * tj)) & 0xFu);
                bits = static_cast<std::uint16_t>(bits |
                                                  (nib << (4 * lr)));
            }
            meta.tiles[ti * kTilesPerEdge + tj] = bits;
            if (bits != 0) {
                meta.tileBits = setBit(meta.tileBits,
                                       ti * kTilesPerEdge + tj);
            }
        }
    }

    return meta;
}

} // namespace unistc
