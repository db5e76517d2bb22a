#include "sparse/bsr.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unistc
{

BsrMatrix::BsrMatrix(int rows, int cols, int block_size)
    : rows_(rows), cols_(cols), blockSize_(block_size)
{
    UNISTC_ASSERT(rows >= 0 && cols >= 0, "negative matrix shape");
    UNISTC_ASSERT(block_size > 0, "block size must be positive");
    blockRows_ = static_cast<int>(ceilDiv(rows, block_size));
    blockCols_ = static_cast<int>(ceilDiv(cols, block_size));
    blockRowPtr_.assign(blockRows_ + 1, 0);
}

double
BsrMatrix::at(int r, int c) const
{
    UNISTC_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                  "at(", r, ",", c, ") out of bounds");
    const int br = r / blockSize_;
    const int bc = c / blockSize_;
    const auto begin = blockColIdx_.begin() + blockRowPtr_[br];
    const auto end = blockColIdx_.begin() + blockRowPtr_[br + 1];
    const auto it = std::lower_bound(begin, end, bc);
    if (it == end || *it != bc)
        return 0.0;
    const std::int64_t blk = it - blockColIdx_.begin();
    const int lr = r % blockSize_;
    const int lc = c % blockSize_;
    return vals_[blk * blockSize_ * blockSize_ + lr * blockSize_ + lc];
}

std::uint64_t
BsrMatrix::storageBytes() const
{
    return static_cast<std::uint64_t>(blockRowPtr_.size()) * 8 +
        static_cast<std::uint64_t>(blockColIdx_.size()) * 4 +
        static_cast<std::uint64_t>(vals_.size()) * 8;
}

void
BsrMatrix::validate() const
{
    UNISTC_ASSERT(static_cast<int>(blockRowPtr_.size()) ==
                  blockRows_ + 1, "blockRowPtr size mismatch");
    UNISTC_ASSERT(blockRowPtr_.front() == 0, "blockRowPtr must start 0");
    UNISTC_ASSERT(blockRowPtr_.back() ==
                  static_cast<std::int64_t>(blockColIdx_.size()),
                  "blockRowPtr back != block count");
    UNISTC_ASSERT(vals_.size() == blockColIdx_.size() *
                  static_cast<std::size_t>(blockSize_) * blockSize_,
                  "vals size != blocks * blockSize^2");
    for (int br = 0; br < blockRows_; ++br) {
        UNISTC_ASSERT(blockRowPtr_[br] <= blockRowPtr_[br + 1],
                      "blockRowPtr not monotone");
        for (std::int64_t i = blockRowPtr_[br];
             i < blockRowPtr_[br + 1]; ++i) {
            UNISTC_ASSERT(blockColIdx_[i] >= 0 &&
                          blockColIdx_[i] < blockCols_,
                          "block column out of bounds");
            if (i > blockRowPtr_[br]) {
                UNISTC_ASSERT(blockColIdx_[i - 1] < blockColIdx_[i],
                              "block columns unsorted in row ", br);
            }
        }
    }
}

void
BsrMatrix::assign(std::vector<std::int64_t> block_row_ptr,
                  std::vector<int> block_col_idx,
                  std::vector<double> vals)
{
    blockRowPtr_ = std::move(block_row_ptr);
    blockColIdx_ = std::move(block_col_idx);
    vals_ = std::move(vals);
    validate();
}

} // namespace unistc
