/**
 * @file
 * A std::vector whose sized construction and resize leave elements
 * default-initialised: for the scalar and aggregate element types the
 * graph set-up uses, that means unwritten, not zero-filled.
 *
 * A value-initialised std::vector<T>(n) zero-fills all n elements on
 * the allocating thread before any part of a parallel fill starts, and
 * every part then overwrites its range anyway. With this vector each
 * part's writes are the first touch of its pages. Whoever sizes one
 * must write every element before reading it; value-initialise
 * explicitly (DefaultInitVector<T>(n, T{})) where zeros are meant.
 */

#ifndef MCLOCK_BASE_DEFAULT_INIT_VECTOR_HH_
#define MCLOCK_BASE_DEFAULT_INIT_VECTOR_HH_

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace mclock {
namespace base {

/**
 * std::allocator whose argument-less construct() default-initialises;
 * every other construct() forwards unchanged.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    using value_type = T;

    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };

    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept
    {
    }

    template <typename U>
    void
    construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace base
}  // namespace mclock

#endif  // MCLOCK_BASE_DEFAULT_INIT_VECTOR_HH_
