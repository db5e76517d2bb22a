/**
 * @file
 * Sparse vector (sorted index/value pairs) — the x operand of SpMSpV
 * and the frontier representation of the BFS example.
 */

#ifndef UNISTC_SPARSE_SPARSE_VECTOR_HH
#define UNISTC_SPARSE_SPARSE_VECTOR_HH

#include <cstdint>
#include <vector>

namespace unistc
{

/** Sorted sparse vector of doubles. */
class SparseVector
{
  public:
    SparseVector() = default;

    /** Empty vector of dimension @p size. */
    explicit SparseVector(int size);

    /** Construct from parallel arrays; sorted and validated. */
    SparseVector(int size, std::vector<int> idx,
                 std::vector<double> vals);

    int size() const { return size_; }
    std::int64_t nnz() const
    {
        return static_cast<std::int64_t>(idx_.size());
    }

    const std::vector<int> &idx() const { return idx_; }
    const std::vector<double> &vals() const { return vals_; }

    /** Append an entry with index greater than all existing ones. */
    void push(int index, double val);

    /** Expand into a dense vector of length size(). */
    std::vector<double> toDense() const;

    /** Abort if indices are out of range or unsorted. */
    void validate() const;

  private:
    int size_ = 0;
    std::vector<int> idx_;
    std::vector<double> vals_;
};

} // namespace unistc

#endif // UNISTC_SPARSE_SPARSE_VECTOR_HH
