/**
 * @file
 * Small-buffer, move-only callable wrapper for hot-path callbacks.
 *
 * std::function heap-allocates any capture larger than ~16 bytes,
 * which puts an allocation on every event schedule and every network
 * stage hop. InlineFunction stores captures up to N bytes in place;
 * larger callables still work through a counted heap fallback, so
 * correctness never depends on a capture-size guess. The fallback
 * counter (inline_function_heap_fallbacks()) lets tests and benches
 * assert that the closures they care about really stay inline.
 */

#ifndef SGMS_COMMON_INLINE_FUNCTION_H
#define SGMS_COMMON_INLINE_FUNCTION_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace sgms
{

namespace detail
{

/** Process-wide count of InlineFunction captures that spilled. */
inline std::atomic<uint64_t> inline_fn_heap_fallbacks{0};

} // namespace detail

/** Captures too large for their InlineFunction's inline buffer. */
inline uint64_t
inline_function_heap_fallbacks()
{
    return detail::inline_fn_heap_fallbacks.load(
        std::memory_order_relaxed);
}

template <typename Sig, size_t N> class InlineFunction;

template <typename R, typename... Args, size_t N>
class InlineFunction<R(Args...), N>
{
  public:
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {} // NOLINT: match std::function

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f) // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= N &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (storage_) Fn(std::forward<F>(f));
            ops_ = &inline_ops<Fn>;
        } else {
            // Spill: store a pointer to a heap-allocated callable.
            // Counted so tests can pin hot closures inline.
            ::new (storage_) Fn *(new Fn(std::forward<F>(f)));
            ops_ = &heap_ops<Fn>;
            detail::inline_fn_heap_fallbacks.fetch_add(
                1, std::memory_order_relaxed);
        }
    }

    InlineFunction(InlineFunction &&other) noexcept
    {
        move_from(other);
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src); // move + destroy src
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops inline_ops = {
        [](void *s, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(s)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            Fn *f = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *s) {
            std::launder(reinterpret_cast<Fn *>(s))->~Fn();
        },
    };

    template <typename Fn>
    static constexpr Ops heap_ops = {
        [](void *s, Args &&...args) -> R {
            return (**std::launder(reinterpret_cast<Fn **>(s)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            Fn **p = std::launder(reinterpret_cast<Fn **>(src));
            ::new (dst) Fn *(*p);
        },
        [](void *s) {
            delete *std::launder(reinterpret_cast<Fn **>(s));
        },
    };

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    void
    move_from(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_)
            ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char storage_[N];
};

} // namespace sgms

#endif // SGMS_COMMON_INLINE_FUNCTION_H
