// Execution contexts for simmpi ranks: ucontext fibers on pooled,
// guard-paged mmap stacks.
//
// Every stack switch is announced to the sanitizers that track stacks:
// AddressSanitizer (__sanitizer_start/finish_switch_fiber, in the
// EXAREQ_SANITIZE build) and ThreadSanitizer (__tsan_*_fiber, in the
// EXAREQ_TSAN build), so both keep following a rank across switches.
#pragma once

#include <ucontext.h>

#include <cstddef>

namespace exareq::simmpi::detail {

/// One mmap'd fiber stack with a PROT_NONE guard page below it, so an
/// overflow faults instead of corrupting a neighbour. Move-only; the
/// destructor returns the mapping to the calling thread's pool, which keeps
/// at most kPoolLimit stacks and unmaps the rest.
class FiberStack {
 public:
  /// Usable bytes per stack. The deepest rank stack measured is 4.3 KiB
  /// over the nine apps on the default grid, and 5 KiB over the simmpi,
  /// pipeline and apps test suites, whose failure paths unwind through
  /// exceptions (RelWithDebInfo, x86-64; found by scanning freshly mapped,
  /// zero-filled stacks for their lowest written byte). 64 KiB leaves a
  /// 12x margin for unoptimized builds and deeper library paths; sanitizer
  /// builds pad every frame with redzones, so they get 4x that.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  static constexpr std::size_t kSize = 256 * 1024;
#else
  static constexpr std::size_t kSize = 64 * 1024;
#endif
  /// Stacks a thread keeps mapped between jobs: enough for the default
  /// grid's largest job (64 ranks) without remapping, while a one-off
  /// 4096-rank job does not pin its stacks' pages afterwards.
  static constexpr std::size_t kPoolLimit = 64;

  FiberStack() = default;
  FiberStack(FiberStack&& other) noexcept;
  FiberStack& operator=(FiberStack&& other) noexcept;
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;
  ~FiberStack();

  /// A stack from this thread's pool, or a fresh mapping.
  static FiberStack acquire();

  /// Lowest usable address (just above the guard page).
  void* bottom() const;

 private:
  explicit FiberStack(void* mapping) : mapping_(mapping) {}
  void* mapping_ = nullptr;  ///< guard page followed by kSize usable bytes
};

/// A switchable execution context: either the thread that started a job
/// (default-constructed) or a fiber made to run `entry` on a FiberStack.
class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  ~Context();

  /// Prepares this context to run `entry()` on `stack` when first switched
  /// to. `entry` must never return; it ends with exit_to().
  void make(const FiberStack& stack, void (*entry)());

  /// Saves the running context into `from` and resumes `to`; returns when
  /// some other context switches back to `from`.
  static void switch_to(Context& from, Context& to);

  /// Final switch of a finished fiber, which is never resumed.
  [[noreturn]] static void exit_to(Context& to);

  /// First call on a fiber's own stack, before anything else: completes
  /// the switch into it. `origin` is the context that started the job; its
  /// stack bounds are learned here, since the first switch of a job always
  /// comes from it.
  void entered(Context& origin);

 private:
  void finish_switch();

  ucontext_t context_{};
  void* stack_bottom_ = nullptr;  ///< known for fibers; learned for origin
  std::size_t stack_size_ = 0;
  void* fake_stack_ = nullptr;    ///< ASan's saved fake stack while away
  void* tsan_fiber_ = nullptr;    ///< TSan's fiber handle (null: unused)
  bool owns_tsan_fiber_ = false;
};

}  // namespace exareq::simmpi::detail
