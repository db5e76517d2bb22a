#include "sparse/dense.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace unistc
{

DenseMatrix::DenseMatrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * cols, 0.0)
{
    UNISTC_ASSERT(rows >= 0 && cols >= 0, "negative matrix shape");
}

bool
DenseMatrix::approxEquals(const DenseMatrix &other, double tol) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        return false;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        const double scale =
            std::max({1.0, std::fabs(data_[i]),
                      std::fabs(other.data_[i])});
        if (std::fabs(data_[i] - other.data_[i]) > tol * scale)
            return false;
    }
    return true;
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    UNISTC_ASSERT(a.size() == b.size(), "size mismatch in maxAbsDiff");
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

double
norm2(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x * x;
    return std::sqrt(s);
}

} // namespace unistc
