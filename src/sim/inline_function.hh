/**
 * @file
 * Fixed-capacity, non-allocating std::function replacement for the
 * simulation hot paths.
 *
 * Every per-access callback in the simulator (event-queue events, MSHR
 * demand waiters, DRAM completion functions) used to be a
 * std::function, whose small-buffer optimization (16 bytes on
 * libstdc++) is too small for the real captures — a ROB completion
 * captures {core, slot, seq} and the DRAM fill wrapper captures a whole
 * completion callback — so the steady state heap-allocated on nearly
 * every simulated miss. InplaceFunction stores the callable inline in a
 * fixed buffer and refuses (at compile time) anything that does not
 * fit, making "no allocation per event" a structural property instead
 * of a hope.
 *
 * Move-only by design: callbacks own their captures and are consumed
 * exactly once per dispatch. A moved-from InplaceFunction is empty.
 */

#ifndef FDP_SIM_INLINE_FUNCTION_HH
#define FDP_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/types.hh"

namespace fdp
{

template <typename Signature, std::size_t Capacity> class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity>
{
  public:
    InplaceFunction() = default;
    InplaceFunction(std::nullptr_t) {}  // NOLINT: match std::function

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InplaceFunction>>>
    InplaceFunction(F &&fn)  // NOLINT: converting, like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable signature mismatch");
        static_assert(sizeof(Fn) <= Capacity,
                      "callable exceeds the inline capacity; shrink the "
                      "capture (or raise the call site's capacity)");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callables are not supported");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callables must be nothrow-movable");
        std::construct_at(reinterpret_cast<Fn *>(&storage_),
                          std::forward<F>(fn));
        invoke_ = [](void *raw, Args... args) -> R {
            return (*static_cast<Fn *>(raw))(
                std::forward<Args>(args)...);
        };
        relocate_ = [](void *dst, void *src) {
            Fn *from = static_cast<Fn *>(src);
            std::construct_at(static_cast<Fn *>(dst), std::move(*from));
            std::destroy_at(from);
        };
        destroy_ = [](void *raw) { std::destroy_at(static_cast<Fn *>(raw)); };
    }

    InplaceFunction(InplaceFunction &&other) noexcept { moveFrom(other); }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        return invoke_(&storage_, std::forward<Args>(args)...);
    }

  private:
    void
    reset() noexcept
    {
        if (destroy_ != nullptr)
            destroy_(&storage_);
        invoke_ = nullptr;
        relocate_ = nullptr;
        destroy_ = nullptr;
    }

    void
    moveFrom(InplaceFunction &other) noexcept
    {
        if (other.invoke_ == nullptr)
            return;
        other.relocate_(&storage_, &other.storage_);
        invoke_ = other.invoke_;
        relocate_ = other.relocate_;
        destroy_ = other.destroy_;
        other.invoke_ = nullptr;
        other.relocate_ = nullptr;
        other.destroy_ = nullptr;
    }

    alignas(std::max_align_t) std::byte storage_[Capacity];
    R (*invoke_)(void *, Args...) = nullptr;
    void (*relocate_)(void *dst, void *src) = nullptr;
    void (*destroy_)(void *) = nullptr;
};

/**
 * Inline capacity of a memory-side completion callback. Sized for the
 * largest real capture (the ROB's {core, slot, seq} completion plus
 * headroom for test lambdas holding a few references).
 */
inline constexpr std::size_t kDoneFnBytes = 40;

/**
 * Completion callback invoked with the cycle the data is available.
 * Shared by the MSHR waiter lists, the DRAM request queues, and the
 * demand-access API of MemorySystem and its per-core ports.
 */
using DoneFn = InplaceFunction<void(Cycle), kDoneFnBytes>;

} // namespace fdp

#endif // FDP_SIM_INLINE_FUNCTION_HH
