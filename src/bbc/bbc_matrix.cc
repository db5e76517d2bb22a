#include "bbc/bbc_matrix.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sparse/convert.hh"

namespace unistc
{

BbcMatrix
BbcMatrix::fromCsr(const CsrMatrix &csr)
{
    BbcMatrix out;
    out.rows_ = csr.rows();
    out.cols_ = csr.cols();
    out.blockRows_ =
        static_cast<int>(ceilDiv(csr.rows(), kBlockSize));
    out.blockCols_ =
        static_cast<int>(ceilDiv(csr.cols(), kBlockSize));

    // Two passes per block row. The first ORs each nonzero into its
    // tile's Lv2 word; emitting the block metadata then sets a value
    // cursor per stored tile; the second writes each value at its
    // tile's cursor. CsrMatrix guarantees sorted, distinct columns,
    // so a tile's values arrive row by row and left to right within a
    // row: the row-major order ValPtr_Lv2 indexes. Tile words and
    // cursors live in per-block-column slots; a slot's Lv1 word is
    // nonzero exactly while its block column is on the touched list.
    std::vector<TileWords> words(out.blockCols_);
    std::vector<std::array<std::int64_t, kBlockSize>> cursor(
        out.blockCols_);
    std::vector<int> touched;
    out.vals_.resize(static_cast<std::size_t>(csr.nnz()));
    std::int64_t next_val = 0;

    out.rowPtr_.assign(out.blockRows_ + 1, 0);
    for (int br = 0; br < out.blockRows_; ++br) {
        touched.clear();
        const int r_begin = br * kBlockSize;
        const int r_end = std::min(r_begin + kBlockSize, csr.rows());
        for (int r = r_begin; r < r_end; ++r) {
            const int lr = r - r_begin;
            for (std::int64_t i = csr.rowPtr()[r];
                 i < csr.rowPtr()[r + 1]; ++i) {
                const int bc = csr.colIdx()[i] / kBlockSize;
                const int lc = csr.colIdx()[i] % kBlockSize;
                const int tile = bit4x4(lr / kTileSize, lc / kTileSize);
                TileWords &w = words[bc];
                if (w.tileBits == 0)
                    touched.push_back(bc);
                w.tileBits = setBit(w.tileBits, tile);
                w.tiles[tile] = setBit(
                    w.tiles[tile],
                    bit4x4(lr % kTileSize, lc % kTileSize));
            }
        }
        std::sort(touched.begin(), touched.end());

        // Emit the block metadata in block-column order. Values go
        // tile-by-tile (row-major tile order), so each stored tile's
        // cursor starts at the block base plus its ValPtr_Lv2.
        out.rowPtr_[br + 1] = out.rowPtr_[br] +
            static_cast<std::int64_t>(touched.size());
        for (const int bc : touched) {
            TileWords &w = words[bc];
            out.colIdx_.push_back(bc);
            out.lv1_.push_back(w.tileBits);
            out.tileBase_.push_back(
                static_cast<std::int64_t>(out.lv2_.size()));
            out.valPtrLv1_.push_back(next_val);
            int block_offset = 0;
            forEachSetBit(w.tileBits, [&](int tile) {
                out.lv2_.push_back(w.tiles[tile]);
                out.valPtrLv2_.push_back(
                    static_cast<std::uint8_t>(block_offset));
                cursor[bc][tile] = next_val + block_offset;
                block_offset += popcount16(w.tiles[tile]);
            });
            next_val += block_offset;
            w = TileWords();
        }

        for (int r = r_begin; r < r_end; ++r) {
            const int lr = r - r_begin;
            for (std::int64_t i = csr.rowPtr()[r];
                 i < csr.rowPtr()[r + 1]; ++i) {
                const int bc = csr.colIdx()[i] / kBlockSize;
                const int lc = csr.colIdx()[i] % kBlockSize;
                const int tile = bit4x4(lr / kTileSize, lc / kTileSize);
                out.vals_[cursor[bc][tile]++] = csr.vals()[i];
            }
        }
    }
    out.validate();
    return out;
}

CsrMatrix
BbcMatrix::toCsr() const
{
    CooMatrix coo(rows_, cols_);
    for (int br = 0; br < blockRows_; ++br) {
        for (std::int64_t blk = rowPtr_[br]; blk < rowPtr_[br + 1];
             ++blk) {
            const BlockPattern pattern = blockPattern(blk);
            const auto dense = blockDense(blk);
            for (int lr = 0; lr < kBlockSize; ++lr) {
                for (int lc = 0; lc < kBlockSize; ++lc) {
                    if (pattern.test(lr, lc)) {
                        coo.add(br * kBlockSize + lr,
                                colIdx_[blk] * kBlockSize + lc,
                                dense[lr * kBlockSize + lc]);
                    }
                }
            }
        }
    }
    return cooToCsr(std::move(coo));
}

BlockPattern
BbcMatrix::blockPattern(std::int64_t blk) const
{
    BlockPattern p;
    const std::uint16_t *lv2 = lv2_.data() + tileBase_[blk];
    forEachSetBit(lv1_[blk], [&](int tile_bit) {
        // Row lr of the tile is nibble lr of its Lv2 word; it lands in
        // nibble tj of block row ti*4+lr.
        const int row0 = tile_bit / kTilesPerEdge * kTileSize;
        const int shift = tile_bit % kTilesPerEdge * kTileSize;
        const std::uint16_t tile = *lv2++;
        for (int lr = 0; lr < kTileSize; ++lr) {
            p.setRowBits(row0 + lr,
                         static_cast<std::uint16_t>(
                             p.rowBits(row0 + lr) |
                             row4(tile, lr) << shift));
        }
    });
    return p;
}

TileWords
BbcMatrix::tileWords(std::int64_t blk) const
{
    TileWords w;
    w.tileBits = lv1_[blk];
    const std::uint16_t *lv2 = lv2_.data() + tileBase_[blk];
    forEachSetBit(w.tileBits, [&](int tile) { w.tiles[tile] = *lv2++; });
    return w;
}

std::array<double, kBlockSize * kBlockSize>
BbcMatrix::blockDense(std::int64_t blk) const
{
    std::array<double, kBlockSize * kBlockSize> dense{};
    const std::int64_t tbase = tileBase_[blk];
    const std::int64_t vbase = valPtrLv1_[blk];
    int tile_i = 0;
    forEachSetBit(lv1_[blk], [&](int tile_bit) {
        const int ti = tile_bit / kTilesPerEdge;
        const int tj = tile_bit % kTilesPerEdge;
        const std::uint16_t lv2 = lv2_[tbase + tile_i];
        std::int64_t v = vbase + valPtrLv2_[tbase + tile_i];
        forEachSetBit(lv2, [&](int elem_bit) {
            const int lr = ti * kTileSize + elem_bit / kTileSize;
            const int lc = tj * kTileSize + elem_bit % kTileSize;
            dense[lr * kBlockSize + lc] = vals_[v++];
        });
        ++tile_i;
    });
    return dense;
}

double
BbcMatrix::nnzPerBlock() const
{
    if (numBlocks() == 0)
        return 0.0;
    return static_cast<double>(nnz()) /
        static_cast<double>(numBlocks());
}

std::uint64_t
BbcMatrix::storageBytes(int bytesPerValue) const
{
    UNISTC_ASSERT(bytesPerValue > 0,
                  "storageBytes needs a positive value width");
    return metadataBytes() +
        static_cast<std::uint64_t>(vals_.size()) *
        static_cast<std::uint64_t>(bytesPerValue);
}

std::uint64_t
BbcMatrix::metadataBytes() const
{
    return static_cast<std::uint64_t>(rowPtr_.size()) * 8 +
        static_cast<std::uint64_t>(colIdx_.size()) * 4 +
        static_cast<std::uint64_t>(lv1_.size()) * 2 +
        static_cast<std::uint64_t>(lv2_.size()) * 2 +
        static_cast<std::uint64_t>(valPtrLv1_.size()) * 4 +
        static_cast<std::uint64_t>(valPtrLv2_.size()) * 1;
}

void
BbcMatrix::validate() const
{
    UNISTC_ASSERT(static_cast<int>(rowPtr_.size()) == blockRows_ + 1,
                  "BBC rowPtr size mismatch");
    UNISTC_ASSERT(rowPtr_.back() ==
                  static_cast<std::int64_t>(colIdx_.size()),
                  "BBC rowPtr back != block count");
    UNISTC_ASSERT(lv1_.size() == colIdx_.size(),
                  "BBC lv1 size != block count");
    UNISTC_ASSERT(valPtrLv1_.size() == colIdx_.size(),
                  "BBC valPtrLv1 size != block count");
    UNISTC_ASSERT(tileBase_.size() == colIdx_.size(),
                  "BBC tileBase size != block count");
    UNISTC_ASSERT(lv2_.size() == valPtrLv2_.size(),
                  "BBC lv2/valPtrLv2 size mismatch");

    std::int64_t tiles = 0;
    std::int64_t values = 0;
    for (std::size_t blk = 0; blk < colIdx_.size(); ++blk) {
        UNISTC_ASSERT(lv1_[blk] != 0, "BBC stored an empty block");
        UNISTC_ASSERT(tileBase_[blk] == tiles,
                      "BBC tileBase prefix mismatch at block ", blk);
        UNISTC_ASSERT(valPtrLv1_[blk] == values,
                      "BBC valPtrLv1 prefix mismatch at block ", blk);
        int block_vals = 0;
        forEachSetBit(lv1_[blk], [&](int) {
            const std::uint16_t lv2 = lv2_[tiles];
            UNISTC_ASSERT(lv2 != 0, "BBC stored an empty tile");
            UNISTC_ASSERT(valPtrLv2_[tiles] == block_vals,
                          "BBC valPtrLv2 offset mismatch");
            block_vals += popcount16(lv2);
            ++tiles;
        });
        values += block_vals;
    }
    UNISTC_ASSERT(values == static_cast<std::int64_t>(vals_.size()),
                  "BBC value count mismatch");
}

} // namespace unistc
