/**
 * @file
 * Block Sparse Row matrix with dense square blocks. Included primarily
 * for the Fig. 15 storage comparison (BSR 4x4 and BSR 16x16 vs BBC),
 * and usable as a conversion target.
 */

#ifndef UNISTC_SPARSE_BSR_HH
#define UNISTC_SPARSE_BSR_HH

#include <cstdint>
#include <vector>

namespace unistc
{

/** BSR matrix: CSR over block coordinates, dense blockSize^2 blocks. */
class BsrMatrix
{
  public:
    BsrMatrix() = default;

    /** Empty matrix; logical shape rows x cols, blocks of block_size. */
    BsrMatrix(int rows, int cols, int block_size);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int blockSize() const { return blockSize_; }
    int blockRows() const { return blockRows_; }
    int blockCols() const { return blockCols_; }

    std::int64_t numBlocks() const
    {
        return blockRowPtr_.empty() ? 0 : blockRowPtr_.back();
    }

    const std::vector<std::int64_t> &blockRowPtr() const
    {
        return blockRowPtr_;
    }
    const std::vector<int> &blockColIdx() const { return blockColIdx_; }

    /** Dense block storage, numBlocks * blockSize^2, row-major blocks. */
    const std::vector<double> &vals() const { return vals_; }

    /** Value at element coordinates (r, c); 0 when block absent. */
    double at(int r, int c) const;

    /**
     * Storage footprint in bytes: 8-byte block-row pointers, 4-byte
     * block column indices, 8-byte values for every (possibly zero)
     * element of every stored block — the overhead Fig. 15 charges BSR.
     */
    std::uint64_t storageBytes() const;

    /** Abort if the structure is inconsistent. */
    void validate() const;

    /** Used by the converter to install the structure wholesale. */
    void assign(std::vector<std::int64_t> block_row_ptr,
                std::vector<int> block_col_idx,
                std::vector<double> vals);

  private:
    int rows_ = 0;
    int cols_ = 0;
    int blockSize_ = 1;
    int blockRows_ = 0;
    int blockCols_ = 0;
    std::vector<std::int64_t> blockRowPtr_{0};
    std::vector<int> blockColIdx_;
    std::vector<double> vals_;
};

} // namespace unistc

#endif // UNISTC_SPARSE_BSR_HH
