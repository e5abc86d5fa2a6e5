#include "harness/driver.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "port/clock.hpp"

namespace msq::harness {

bool pin_current_thread(std::uint32_t cpu) noexcept {
#if defined(__linux__)
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % cores), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

std::int64_t await_deadline_ns(std::int64_t deadline_ns) noexcept {
  std::int64_t now = port::now_ns();
  if (now >= deadline_ns) return now - deadline_ns;
  // Coarse waits sleep-yield; the last microsecond busy-polls so pacing
  // jitter stays well under the arrival intervals the scenarios use.
  while (deadline_ns - now > 1'000) {
    std::this_thread::yield();
    now = port::now_ns();
  }
  while (now < deadline_ns) now = port::now_ns();
  return 0;
}

}  // namespace msq::harness
