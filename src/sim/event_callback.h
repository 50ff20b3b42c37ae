// EventCallback: a move-only, small-buffer-optimized callable for the
// event kernel hot path.
//
// Nearly every event the simulator dispatches is a lambda capturing `this`
// plus a handful of scalars; std::function heap-allocates many of those and
// drags in RTTI/copy machinery the kernel never uses. EventCallback stores
// captures up to kInlineBytes in place (no allocation on the schedule hot
// path) and falls back to the heap only for oversized captures. Dispatch is
// one indirect call through a per-type vtable, same as std::function, but
// construction/destruction are allocation-free for the common case.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ara::sim {

class EventCallback {
 public:
  /// Inline capture budget. 56 bytes = 7 pointers, which covers every
  /// lambda the simulator schedules today; bigger captures take one heap
  /// allocation, counted by Simulator::heap_callbacks().
  static constexpr std::size_t kInlineBytes = 56;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      // This class IS the small-buffer allocator: placement new into the
      // inline slab, heap spill only for oversized captures.
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));  // ara-lint: allow(no-raw-new-delete)
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));  // ara-lint: allow(no-raw-new-delete)
      ops_ = &heap_ops<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroy the stored callable (releasing any heap capture) and return to
  /// the empty state. Called by the kernel when an Entry goes back on the
  /// free list, so captures don't outlive their event.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// True when the callable lives in the inline buffer (telemetry for the
  /// hot-path benchmark; heap fallbacks are worth knowing about).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct + destroy src
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));  // ara-lint: allow(no-raw-new-delete)
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      true,
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      [](void* p) { delete *static_cast<Fn**>(p); },  // ara-lint: allow(no-raw-new-delete)
      false,
  };

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ara::sim
