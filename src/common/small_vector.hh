/**
 * @file
 * Fixed-inline-capacity vector for task-lifetime data. The simulator's
 * hot loops build many tiny sequences per T1 task (T3 tasks, T4
 * segments, per-warp scheduler state) whose sizes are bounded by the
 * 4x4x4 block geometry or the SM shape; SmallVector keeps them in
 * the object itself (usually on the stack) and only touches the heap
 * when a sequence outgrows its inline capacity. The idiom follows
 * cdec's SmallVector (see SNIPPETS.md): trivially relocatable element
 * types, pointer iterators, no allocator customisation.
 */

#ifndef UNISTC_COMMON_SMALL_VECTOR_HH
#define UNISTC_COMMON_SMALL_VECTOR_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace unistc
{

/**
 * Vector with @p N elements of inline storage. Supports the subset of
 * std::vector used by the simulator (push_back, emplace_back, clear,
 * resize, iteration, indexing, copy/move). Elements must be trivially
 * copyable or at least nothrow-movable; every use in the hot path is
 * a POD task record.
 */
template <typename T, std::size_t N>
class SmallVector
{
    static_assert(N > 0, "inline capacity must be positive");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    SmallVector() = default;

    SmallVector(const SmallVector &other) { appendRange(other); }

    SmallVector(SmallVector &&other) noexcept { moveFrom(other); }

    SmallVector &
    operator=(const SmallVector &other)
    {
        if (this != &other) {
            clear();
            appendRange(other);
        }
        return *this;
    }

    SmallVector &
    operator=(SmallVector &&other) noexcept
    {
        if (this != &other) {
            destroyAll();
            moveFrom(other);
        }
        return *this;
    }

    ~SmallVector() { destroyAll(); }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return capacity_; }

    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }

    T &
    operator[](std::size_t i)
    {
        return data_[i];
    }
    const T &
    operator[](std::size_t i) const
    {
        return data_[i];
    }

    T &front() { return data_[0]; }
    const T &front() const { return data_[0]; }
    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }

    void
    push_back(const T &v)
    {
        if (size_ == capacity_)
            grow(size_ + 1);
        ::new (static_cast<void *>(data_ + size_)) T(v);
        ++size_;
    }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == capacity_)
            grow(size_ + 1);
        T *slot = ::new (static_cast<void *>(data_ + size_))
            T(std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void
    pop_back()
    {
        --size_;
        data_[size_].~T();
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < size_; ++i)
            data_[i].~T();
        size_ = 0;
    }

    void
    resize(std::size_t n)
    {
        if (n < size_) {
            for (std::size_t i = n; i < size_; ++i)
                data_[i].~T();
        } else {
            if (n > capacity_)
                grow(n);
            for (std::size_t i = size_; i < n; ++i)
                ::new (static_cast<void *>(data_ + i)) T();
        }
        size_ = n;
    }

    void
    resize(std::size_t n, const T &fill)
    {
        if (n < size_) {
            for (std::size_t i = n; i < size_; ++i)
                data_[i].~T();
        } else {
            if (n > capacity_)
                grow(n);
            for (std::size_t i = size_; i < n; ++i)
                ::new (static_cast<void *>(data_ + i)) T(fill);
        }
        size_ = n;
    }

    void
    reserve(std::size_t n)
    {
        if (n > capacity_)
            grow(n);
    }

    template <typename It>
    void
    append(It first, It last)
    {
        for (; first != last; ++first)
            push_back(*first);
    }

    bool
    operator==(const SmallVector &other) const
    {
        if (size_ != other.size_)
            return false;
        for (std::size_t i = 0; i < size_; ++i) {
            if (!(data_[i] == other.data_[i]))
                return false;
        }
        return true;
    }

  private:
    bool onHeap() const { return data_ != inlinePtr(); }

    T *
    inlinePtr()
    {
        return std::launder(reinterpret_cast<T *>(inline_));
    }
    const T *
    inlinePtr() const
    {
        return std::launder(reinterpret_cast<const T *>(inline_));
    }

    void
    appendRange(const SmallVector &other)
    {
        reserve(other.size_);
        for (std::size_t i = 0; i < other.size_; ++i)
            ::new (static_cast<void *>(data_ + i)) T(other.data_[i]);
        size_ = other.size_;
    }

    /** Steal @p other's heap buffer or move its inline elements. */
    void
    moveFrom(SmallVector &other) noexcept
    {
        if (other.onHeap()) {
            data_ = other.data_;
            size_ = other.size_;
            capacity_ = other.capacity_;
            other.data_ = other.inlinePtr();
            other.size_ = 0;
            other.capacity_ = N;
            return;
        }
        data_ = inlinePtr();
        capacity_ = N;
        size_ = other.size_;
        for (std::size_t i = 0; i < size_; ++i) {
            ::new (static_cast<void *>(data_ + i))
                T(std::move(other.data_[i]));
            other.data_[i].~T();
        }
        other.size_ = 0;
    }

    void
    grow(std::size_t need)
    {
        std::size_t cap = capacity_ * 2;
        if (cap < need)
            cap = need;
        T *buf = static_cast<T *>(
            ::operator new(cap * sizeof(T), std::align_val_t(alignof(T))));
        for (std::size_t i = 0; i < size_; ++i) {
            ::new (static_cast<void *>(buf + i))
                T(std::move(data_[i]));
            data_[i].~T();
        }
        if (onHeap())
            ::operator delete(data_, std::align_val_t(alignof(T)));
        data_ = buf;
        capacity_ = cap;
    }

    void
    destroyAll()
    {
        clear();
        if (onHeap())
            ::operator delete(data_, std::align_val_t(alignof(T)));
    }

    alignas(T) unsigned char inline_[N * sizeof(T)];
    T *data_ = inlinePtr();
    std::size_t size_ = 0;
    std::size_t capacity_ = N;
};

} // namespace unistc

#endif // UNISTC_COMMON_SMALL_VECTOR_HH
