#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#define EXAREQ_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define EXAREQ_TSAN_FIBERS 1
#endif

namespace exareq::simmpi::detail {
namespace {

std::size_t page_size() {
  static const auto size = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t mapping_size() { return page_size() + FiberStack::kSize; }

/// This thread's idle stacks; unmapped when the thread exits.
struct StackPool {
  std::vector<void*> idle;
  StackPool() { idle.reserve(FiberStack::kPoolLimit); }
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (void* mapping : idle) ::munmap(mapping, mapping_size());
  }
};

StackPool& pool() {
  thread_local StackPool instance;
  return instance;
}

}  // namespace

FiberStack::FiberStack(FiberStack&& other) noexcept
    : mapping_(std::exchange(other.mapping_, nullptr)) {}

FiberStack& FiberStack::operator=(FiberStack&& other) noexcept {
  if (this != &other) {
    FiberStack released(std::move(*this));
    mapping_ = std::exchange(other.mapping_, nullptr);
  }
  return *this;
}

FiberStack::~FiberStack() {
  if (mapping_ == nullptr) return;
  StackPool& idle = pool();
  if (idle.idle.size() < kPoolLimit) {
    idle.idle.push_back(mapping_);
  } else {
    ::munmap(mapping_, mapping_size());
  }
}

FiberStack FiberStack::acquire() {
  StackPool& idle = pool();
  if (!idle.idle.empty()) {
    void* mapping = idle.idle.back();
    idle.idle.pop_back();
    return FiberStack(mapping);
  }
  void* mapping = ::mmap(nullptr, mapping_size(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping == MAP_FAILED) {
    throw Error(std::string("simmpi: cannot map a rank stack: ") +
                std::strerror(errno));
  }
  if (::mprotect(mapping, page_size(), PROT_NONE) != 0) {
    const int error = errno;
    ::munmap(mapping, mapping_size());
    throw Error(std::string("simmpi: cannot protect a stack guard page: ") +
                std::strerror(error));
  }
  return FiberStack(mapping);
}

void* FiberStack::bottom() const {
  return static_cast<char*>(mapping_) + page_size();
}

Context::~Context() {
#if defined(EXAREQ_TSAN_FIBERS)
  if (owns_tsan_fiber_) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Context::make(const FiberStack& stack, void (*entry)()) {
  if (::getcontext(&context_) != 0) {
    throw Error("simmpi: getcontext failed");
  }
  stack_bottom_ = stack.bottom();
  stack_size_ = FiberStack::kSize;
  context_.uc_stack.ss_sp = stack_bottom_;
  context_.uc_stack.ss_size = stack_size_;
  context_.uc_link = nullptr;
  ::makecontext(&context_, entry, 0);
#if defined(EXAREQ_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
  owns_tsan_fiber_ = true;
#endif
}

void Context::switch_to(Context& from, Context& to) {
#if defined(EXAREQ_TSAN_FIBERS)
  if (from.tsan_fiber_ == nullptr) {
    from.tsan_fiber_ = __tsan_get_current_fiber();
  }
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if defined(EXAREQ_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&from.fake_stack_, to.stack_bottom_,
                                 to.stack_size_);
#endif
  ::swapcontext(&from.context_, &to.context_);
  from.finish_switch();
}

void Context::exit_to(Context& to) {
#if defined(EXAREQ_TSAN_FIBERS)
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if defined(EXAREQ_ASAN_FIBERS)
  // A null save slot tells ASan this fiber is gone: its fake stack is freed.
  __sanitizer_start_switch_fiber(nullptr, to.stack_bottom_, to.stack_size_);
#endif
  ::setcontext(&to.context_);
  __builtin_unreachable();
}

void Context::entered(Context& origin) {
#if defined(EXAREQ_ASAN_FIBERS)
  const void* previous_bottom = nullptr;
  std::size_t previous_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &previous_bottom, &previous_size);
  if (origin.stack_bottom_ == nullptr) {
    origin.stack_bottom_ = const_cast<void*>(previous_bottom);
    origin.stack_size_ = previous_size;
  }
#else
  (void)origin;
#endif
}

void Context::finish_switch() {
#if defined(EXAREQ_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack_, nullptr, nullptr);
#endif
}

}  // namespace exareq::simmpi::detail
