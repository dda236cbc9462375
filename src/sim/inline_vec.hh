/**
 * @file
 * A small vector that keeps its first N elements inside the object.
 *
 * The protocol's per-message outcome records hold a handful of items
 * (a few effects, at most a couple of directory and memory writes), so
 * keeping them inside the record keeps the per-message path free of
 * heap allocation. InlineVec stores up to N elements in place and
 * spills to the heap, in order, past that (an UPD fan-out to 63
 * sharers still fits, just not inline).
 *
 * Only trivially copyable elements are allowed: copies are bytewise and
 * nothing is ever destroyed. Moving a spilled vector hands over its
 * buffer; moving an inline one copies its elements, so pass outcomes by
 * reference.
 */

#ifndef DSM_SIM_INLINE_VEC_HH
#define DSM_SIM_INLINE_VEC_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dsm {

template <typename T, std::size_t N>
class InlineVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "InlineVec copies its elements bytewise");
    static_assert(N > 0, "InlineVec needs an inline capacity");

  public:
    InlineVec() noexcept {}
    InlineVec(const InlineVec &o) { copyFrom(o); }
    InlineVec(InlineVec &&o) noexcept { take(o); }

    InlineVec &
    operator=(const InlineVec &o)
    {
        if (this != &o) {
            _size = 0;
            copyFrom(o);
        }
        return *this;
    }

    InlineVec &
    operator=(InlineVec &&o) noexcept
    {
        if (this != &o) {
            freeHeap();
            _data = _items;
            _cap = N;
            take(o);
        }
        return *this;
    }

    ~InlineVec() { freeHeap(); }

    /** Construct one element in place at the end. */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (_size == _cap)
            grow(_cap * 2);
        return *::new (static_cast<void *>(_data + _size++))
            T(std::forward<Args>(args)...);
    }

    void push_back(const T &v) { emplace_back(v); }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    T *begin() { return _data; }
    T *end() { return _data + _size; }
    const T *begin() const { return _data; }
    const T *end() const { return _data + _size; }

  private:
    /** True once the elements live on the heap. */
    bool spilled() const { return _data != _items; }

    void
    grow(std::size_t cap)
    {
        T *fresh = static_cast<T *>(::operator new(cap * sizeof(T)));
        std::memcpy(static_cast<void *>(fresh), _data, _size * sizeof(T));
        freeHeap();
        _data = fresh;
        _cap = cap;
    }

    /** Copy @p o's elements into this empty vector. */
    void
    copyFrom(const InlineVec &o)
    {
        if (o._size > _cap)
            grow(o._size);
        std::memcpy(static_cast<void *>(_data), o._data,
                    o._size * sizeof(T));
        _size = o._size;
    }

    /** Take @p o's elements into this empty inline vector, leaving
     *  @p o empty. */
    void
    take(InlineVec &o) noexcept
    {
        if (o.spilled()) {
            _data = o._data;
            _cap = o._cap;
            o._data = o._items;
            o._cap = N;
        } else {
            std::memcpy(static_cast<void *>(_items), o._items,
                        o._size * sizeof(T));
        }
        _size = o._size;
        o._size = 0;
    }

    void
    freeHeap()
    {
        if (spilled())
            ::operator delete(_data);
    }

    T *_data = _items;
    std::size_t _size = 0;
    std::size_t _cap = N;
    /** Inline slots; constructed one by one as they are used. */
    union
    {
        T _items[N];
    };
};

} // namespace dsm

#endif // DSM_SIM_INLINE_VEC_HH
