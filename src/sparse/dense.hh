/**
 * @file
 * Dense row-major matrix and vector helpers, used as the gold standard
 * in tests and as the B/C operands of SpMM.
 */

#ifndef UNISTC_SPARSE_DENSE_HH
#define UNISTC_SPARSE_DENSE_HH

#include <cstdint>
#include <vector>

namespace unistc
{

/** Dense row-major matrix of doubles. */
class DenseMatrix
{
  public:
    DenseMatrix() = default;

    /** Zero-initialised rows x cols matrix. */
    DenseMatrix(int rows, int cols);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    double &at(int r, int c) { return data_[idx(r, c)]; }
    double at(int r, int c) const { return data_[idx(r, c)]; }

    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

    /** Element-wise approximate equality within @p tol (relative). */
    bool approxEquals(const DenseMatrix &other, double tol = 1e-9) const;

  private:
    std::size_t
    idx(int r, int c) const
    {
        return static_cast<std::size_t>(r) * cols_ + c;
    }

    int rows_ = 0;
    int cols_ = 0;
    std::vector<double> data_;
};

/** Max-norm distance between two equally sized vectors. */
double maxAbsDiff(const std::vector<double> &a,
                  const std::vector<double> &b);

/** Euclidean norm. */
double norm2(const std::vector<double> &v);

} // namespace unistc

#endif // UNISTC_SPARSE_DENSE_HH
