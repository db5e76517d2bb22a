#include "sparse/sparse_vector.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace unistc
{

SparseVector::SparseVector(int size) : size_(size)
{
    UNISTC_ASSERT(size >= 0, "negative vector size");
}

SparseVector::SparseVector(int size, std::vector<int> idx,
                           std::vector<double> vals)
    : size_(size), idx_(std::move(idx)), vals_(std::move(vals))
{
    UNISTC_ASSERT(idx_.size() == vals_.size(),
                  "idx/vals size mismatch");
    // Sort by index if the caller handed us unsorted data.
    if (!std::is_sorted(idx_.begin(), idx_.end())) {
        std::vector<std::size_t> perm(idx_.size());
        std::iota(perm.begin(), perm.end(), 0);
        std::sort(perm.begin(), perm.end(),
                  [&](std::size_t a, std::size_t b) {
                      return idx_[a] < idx_[b];
                  });
        std::vector<int> si(idx_.size());
        std::vector<double> sv(vals_.size());
        for (std::size_t i = 0; i < perm.size(); ++i) {
            si[i] = idx_[perm[i]];
            sv[i] = vals_[perm[i]];
        }
        idx_ = std::move(si);
        vals_ = std::move(sv);
    }
    validate();
}

void
SparseVector::push(int index, double val)
{
    UNISTC_ASSERT(idx_.empty() || idx_.back() < index,
                  "push index must be strictly increasing");
    UNISTC_ASSERT(index >= 0 && index < size_, "push index out of range");
    idx_.push_back(index);
    vals_.push_back(val);
}

std::vector<double>
SparseVector::toDense() const
{
    std::vector<double> out(size_, 0.0);
    for (std::size_t i = 0; i < idx_.size(); ++i)
        out[idx_[i]] = vals_[i];
    return out;
}

void
SparseVector::validate() const
{
    for (std::size_t i = 0; i < idx_.size(); ++i) {
        UNISTC_ASSERT(idx_[i] >= 0 && idx_[i] < size_,
                      "sparse vector index out of range");
        if (i > 0) {
            UNISTC_ASSERT(idx_[i - 1] < idx_[i],
                          "sparse vector indices unsorted/duplicated");
        }
    }
}

} // namespace unistc
