#include "sparse/convert.hh"

#include <map>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unistc
{

CsrMatrix
cooToCsr(CooMatrix coo)
{
    coo.normalize();
    const int rows = coo.rows();
    const int cols = coo.cols();
    std::vector<std::int64_t> row_ptr(rows + 1, 0);
    std::vector<int> col_idx;
    std::vector<double> vals;
    col_idx.reserve(coo.entries().size());
    vals.reserve(coo.entries().size());
    for (const auto &e : coo.entries())
        ++row_ptr[e.row + 1];
    for (int r = 0; r < rows; ++r)
        row_ptr[r + 1] += row_ptr[r];
    for (const auto &e : coo.entries()) {
        col_idx.push_back(e.col);
        vals.push_back(e.val);
    }
    return CsrMatrix(rows, cols, std::move(row_ptr),
                     std::move(col_idx), std::move(vals));
}

CsrMatrix
transposeCsr(const CsrMatrix &csr)
{
    // Counting transpose: column counts of A are the row pointers of
    // A^T, and walking A's rows in order fills each row of A^T with
    // increasing column (= A's row) indices.
    std::vector<std::int64_t> row_ptr(csr.cols() + 1, 0);
    for (int c : csr.colIdx())
        ++row_ptr[c + 1];
    for (int c = 0; c < csr.cols(); ++c)
        row_ptr[c + 1] += row_ptr[c];
    std::vector<int> col_idx(csr.nnz());
    std::vector<double> vals(csr.nnz());
    std::vector<std::int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
    for (int r = 0; r < csr.rows(); ++r) {
        for (std::int64_t i = csr.rowPtr()[r]; i < csr.rowPtr()[r + 1];
             ++i) {
            const std::int64_t pos = cursor[csr.colIdx()[i]]++;
            col_idx[pos] = r;
            vals[pos] = csr.vals()[i];
        }
    }
    return CsrMatrix(csr.cols(), csr.rows(), std::move(row_ptr),
                     std::move(col_idx), std::move(vals));
}

BsrMatrix
csrToBsr(const CsrMatrix &csr, int block_size)
{
    BsrMatrix bsr(csr.rows(), csr.cols(), block_size);
    const int bs = block_size;
    const int brows = bsr.blockRows();

    // Pass 1: discover nonzero blocks per block row.
    std::vector<std::map<int, std::vector<double>>> block_rows(brows);
    for (int r = 0; r < csr.rows(); ++r) {
        const int br = r / bs;
        for (std::int64_t i = csr.rowPtr()[r]; i < csr.rowPtr()[r + 1];
             ++i) {
            const int c = csr.colIdx()[i];
            const int bc = c / bs;
            auto &blk = block_rows[br][bc];
            if (blk.empty())
                blk.assign(static_cast<std::size_t>(bs) * bs, 0.0);
            blk[(r % bs) * bs + (c % bs)] = csr.vals()[i];
        }
    }

    // Pass 2: flatten into BSR arrays.
    std::vector<std::int64_t> block_row_ptr(brows + 1, 0);
    std::vector<int> block_col_idx;
    std::vector<double> vals;
    for (int br = 0; br < brows; ++br) {
        block_row_ptr[br + 1] = block_row_ptr[br] +
            static_cast<std::int64_t>(block_rows[br].size());
        for (auto &[bc, blk] : block_rows[br]) {
            block_col_idx.push_back(bc);
            vals.insert(vals.end(), blk.begin(), blk.end());
        }
    }
    bsr.assign(std::move(block_row_ptr), std::move(block_col_idx),
               std::move(vals));
    return bsr;
}

} // namespace unistc
