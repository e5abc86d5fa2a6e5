// A stackful fiber: `entry(arg)` runs on a stack of its own, entered by
// resume() and left by suspend() -- ordinary calls on both sides, which is
// what lets the simulator (src/sim) run plain code, the shipped queues
// included, one shared-memory access at a time.
//
// x86-64 only, like the rest of the build (-mcx16): a switch saves the six
// callee-saved registers and swaps stack pointers (port/fiber.cpp), no
// signal-mask syscall.  ASan and TSan are told about every switch; without
// that ASan mistakes a new stack for an overflow and TSan mixes the
// fibers' call stacks.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define MSQ_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSQ_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define MSQ_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MSQ_FIBER_TSAN 1
#endif
#endif

extern "C" {
#if defined(MSQ_FIBER_ASAN)
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
#endif
#if defined(MSQ_FIBER_TSAN)
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
#endif
/// Push the callee-saved registers, store the stack pointer to *save, load
/// `load` as the stack pointer, pop the registers saved there, go on.
void msq_fiber_switch(void** save, void* load);
}

namespace msq::port {

class Fiber {
 public:
  using Entry = void (*)(void*);

  Fiber() = default;
  ~Fiber();  // a started fiber must be suspended or have exited
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Give the fiber a stack on which the first resume() calls
  /// `entry(arg)`, which must end in exit().  Fibers started with
  /// different `color`s begin at different offsets within a page: equal
  /// offsets make their frames alias in the cache and the store buffer.
  void start(Entry entry, void* arg, unsigned color);
  [[nodiscard]] bool started() const noexcept { return stack_ != nullptr; }

  /// Caller side: run the fiber until it suspends or exits.
  void resume() noexcept {
#if defined(MSQ_FIBER_TSAN)
    tsan_caller_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(MSQ_FIBER_ASAN)
    __sanitizer_start_switch_fiber(&asan_caller_fake_, stack_bottom(),
                                   kStackBytes);
#endif
    msq_fiber_switch(&caller_sp_, sp_);
#if defined(MSQ_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(asan_caller_fake_, nullptr, nullptr);
#endif
  }

  /// Fiber side: switch back to the caller of resume().
  void suspend() noexcept {
#if defined(MSQ_FIBER_ASAN)
    __sanitizer_start_switch_fiber(&asan_fake_, caller_bottom_, caller_size_);
#endif
#if defined(MSQ_FIBER_TSAN)
    __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
    msq_fiber_switch(&sp_, caller_sp_);
#if defined(MSQ_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(asan_fake_, &caller_bottom_,
                                    &caller_size_);
#endif
  }

  /// Fiber side, last call: suspend for good.
  [[noreturn]] void exit() noexcept;

 private:
  static constexpr std::size_t kGuardBytes = 4096;
  static constexpr std::size_t kStackBytes = 256 * 1024;

  [[noreturn]] static void run(Fiber* fiber) noexcept;
  [[nodiscard]] const void* stack_bottom() const noexcept {
    return static_cast<char*>(stack_) + kGuardBytes;
  }

  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  void* stack_ = nullptr;      // mapping: guard page, then the stack
  void* sp_ = nullptr;         // saved while suspended
  void* caller_sp_ = nullptr;  // saved while running
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
  void* asan_fake_ = nullptr;
  void* asan_caller_fake_ = nullptr;
  const void* caller_bottom_ = nullptr;  // the caller's stack, for ASan
  std::size_t caller_size_ = 0;
};

}  // namespace msq::port
