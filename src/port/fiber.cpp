#include "port/fiber.hpp"

#include <sys/mman.h>

#include <new>
#include <vector>

extern "C" void msq_fiber_entry();

// A switch leaves the return-stack predictor holding the other side's
// return addresses, so a return right after one mispredicts: the switch
// leaves by an indirect jump rather than a return, and resume()/suspend()
// are inline so their callers add no frames of their own.  A new fiber's
// first switch "returns" into msq_fiber_entry with Fiber::run in r12 and
// the fiber in rbx.
asm(R"(
  .text
  .p2align 4
  .globl msq_fiber_switch
  .hidden msq_fiber_switch
  .type msq_fiber_switch, @function
msq_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  popq %rcx
  jmpq *%rcx
  .size msq_fiber_switch, .-msq_fiber_switch

  .p2align 4
  .globl msq_fiber_entry
  .hidden msq_fiber_entry
  .type msq_fiber_entry, @function
msq_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  call *%r12
  ud2
  .cfi_endproc
  .size msq_fiber_entry, .-msq_fiber_entry
)");

namespace msq::port {
namespace {

constexpr std::size_t kMapBytes = 4096 + 256 * 1024;  // guard + stack

// Exited fibers' stacks are reused: the simulator's explorer builds fresh
// processes for every schedule, and an mmap each would dominate.
struct StackCache {
  std::vector<void*> free;
  ~StackCache() {
    for (void* s : free) munmap(s, kMapBytes);
  }
};
thread_local StackCache t_stacks;

}  // namespace

void Fiber::start(Entry entry, void* arg, unsigned color) {
  static_assert(kGuardBytes + kStackBytes == kMapBytes);
  entry_ = entry;
  arg_ = arg;
  if (!t_stacks.free.empty()) {
    stack_ = t_stacks.free.back();
    t_stacks.free.pop_back();
  } else {
    stack_ = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (stack_ == MAP_FAILED) {
      stack_ = nullptr;
      throw std::bad_alloc();
    }
    mprotect(stack_, kGuardBytes, PROT_NONE);  // overflow faults, loudly
  }
  // The frame msq_fiber_switch pops: r15 r14 r13 r12 rbx rbp, then the
  // return address, which sits 8 bytes below a 16-byte boundary so the
  // entry's call sees an ABI-aligned stack.
  auto* top = reinterpret_cast<void**>(static_cast<char*>(stack_) + kMapBytes -
                                       (color % 16) * 1088);
  void** frame = top - 7;
  frame[0] = frame[1] = frame[2] = frame[5] = nullptr;
  frame[3] = reinterpret_cast<void*>(&run);
  frame[4] = this;
  frame[6] = reinterpret_cast<void*>(&msq_fiber_entry);
  sp_ = frame;
#if defined(MSQ_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  if (stack_ == nullptr) return;
#if defined(MSQ_FIBER_TSAN)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (t_stacks.free.size() < 64) {
    t_stacks.free.push_back(stack_);
  } else {
    munmap(stack_, kMapBytes);
  }
}

void Fiber::run(Fiber* fiber) noexcept {
#if defined(MSQ_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &fiber->caller_bottom_,
                                  &fiber->caller_size_);
#endif
  fiber->entry_(fiber->arg_);
  __builtin_trap();  // entry must exit(), not return
}

void Fiber::exit() noexcept {
#if defined(MSQ_FIBER_ASAN)
  __sanitizer_start_switch_fiber(nullptr, caller_bottom_, caller_size_);
#endif
#if defined(MSQ_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
  msq_fiber_switch(&sp_, caller_sp_);
  __builtin_unreachable();
}

}  // namespace msq::port
