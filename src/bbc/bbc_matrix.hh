/**
 * @file
 * BBC (Bitmap-Bitmap-CSR) — the paper's unified sparse format (§IV-D).
 *
 * Outer level: CSR over nonzero 16x16 blocks (RowPtr / ColIdx).
 * Inner level, per block:
 *   - BitMap_Lv1 (16 bits): which of the 16 4x4 tiles hold nonzeros;
 *   - BitMap_Lv2 (16 bits per nonzero tile): element positions inside
 *     the tile, row-major;
 *   - ValPtr_Lv1 (per block): base offset into the value array;
 *   - ValPtr_Lv2 (per nonzero tile): offset of the tile's first value
 *     relative to the block base (fits in one byte: <= 255).
 * Values are stored tile-by-tile (tiles in row-major order), row-major
 * within each tile.
 */

#ifndef UNISTC_BBC_BBC_MATRIX_HH
#define UNISTC_BBC_BBC_MATRIX_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bbc/block_pattern.hh"
#include "bbc/pattern_meta.hh"
#include "sparse/csr.hh"

namespace unistc
{

class FaultPlan;

namespace detail
{
class BbcIoAccess;
} // namespace detail

/** Sparse matrix in BBC format. */
class BbcMatrix
{
  public:
    BbcMatrix() = default;

    /** Convert from CSR (the one-time software encoding of §IV-D). */
    static BbcMatrix fromCsr(const CsrMatrix &csr);

    /** Exact back-conversion (round-trip tested). */
    CsrMatrix toCsr() const;

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int blockRows() const { return blockRows_; }
    int blockCols() const { return blockCols_; }
    std::int64_t nnz() const
    {
        return static_cast<std::int64_t>(vals_.size());
    }
    std::int64_t numBlocks() const
    {
        return static_cast<std::int64_t>(colIdx_.size());
    }

    const std::vector<std::int64_t> &rowPtr() const { return rowPtr_; }
    const std::vector<int> &colIdx() const { return colIdx_; }
    const std::vector<std::uint16_t> &lv1() const { return lv1_; }
    const std::vector<std::uint16_t> &lv2() const { return lv2_; }
    const std::vector<std::int64_t> &valPtrLv1() const
    {
        return valPtrLv1_;
    }
    const std::vector<std::uint8_t> &valPtrLv2() const
    {
        return valPtrLv2_;
    }
    const std::vector<double> &vals() const { return vals_; }

    /** Offset of block @p blk's first Lv2 word / ValPtr_Lv2 entry. */
    std::int64_t tileBase(std::int64_t blk) const
    {
        return tileBase_[blk];
    }

    /** Reconstruct the full structural pattern of block @p blk. */
    BlockPattern blockPattern(std::int64_t blk) const;

    /**
     * Block @p blk's stored Lv1 word and its Lv2 words placed at
     * their tile positions: the TMS input, with no pattern unpacked.
     */
    TileWords tileWords(std::int64_t blk) const;

    /** Dense 16x16 values of block @p blk, row-major. */
    std::array<double, kBlockSize * kBlockSize>
    blockDense(std::int64_t blk) const;

    /** Average nonzeros per stored block (Fig. 15 x-axis "NnzPB"). */
    double nnzPerBlock() const;

    /**
     * Storage footprint in bytes: 8B block-row pointers, 4B block
     * column indices, 2B Lv1 bitmaps, 2B Lv2 bitmaps, 4B ValPtr_Lv1,
     * 1B ValPtr_Lv2, plus @p bytesPerValue per stored value — the
     * Fig. 15 accounting. The default 8 is FP64; pass
     * MachineConfig::bytesPerValue() for precision-aware totals
     * (4 under FP32) instead of the old hard-coded 8 B/value.
     */
    std::uint64_t storageBytes(int bytesPerValue = 8) const;

    /** Index-structure bytes only (everything except values). */
    std::uint64_t metadataBytes() const;

    /** Abort when any invariant is violated. */
    void validate() const;

  private:
    /** File loader (bbc_io.cc) assembles fields, then validates. */
    friend class detail::BbcIoAccess;
    /** Test fault injector (tests/fault_inject.hh) corrupts fields. */
    friend class FaultPlan;

    int rows_ = 0;
    int cols_ = 0;
    int blockRows_ = 0;
    int blockCols_ = 0;

    std::vector<std::int64_t> rowPtr_{0}; ///< CSR over block rows.
    std::vector<int> colIdx_;             ///< Block columns.
    std::vector<std::uint16_t> lv1_;      ///< Tile bitmap per block.
    std::vector<std::int64_t> tileBase_;  ///< Prefix sums of tile counts.
    std::vector<std::uint16_t> lv2_;      ///< Element bitmap per tile.
    std::vector<std::int64_t> valPtrLv1_; ///< Value base per block.
    std::vector<std::uint8_t> valPtrLv2_; ///< Value offset per tile.
    std::vector<double> vals_;            ///< Nonzero values.
};

} // namespace unistc

#endif // UNISTC_BBC_BBC_MATRIX_HH
