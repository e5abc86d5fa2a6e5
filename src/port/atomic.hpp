// A std::atomic whose every access names its site.
//
// The counted words (tagged::AtomicTagged) already take a site name per
// access; this is the same seam for the plain atomics the shipped code
// keeps -- the TATAS lock's flag, the Valois reference count.  The name is
// ignored here; the simulator's twin (sim::SimAtomic in sim/shipped.hpp)
// uses it to label, freeze at and mutate the access (sim/mo_table.hpp).
// No defaulted orders, as for AtomicTagged.
#pragma once

#include <atomic>

namespace msq::port {

template <typename T>
class Atomic {
 public:
  Atomic() noexcept = default;
  explicit Atomic(T initial) noexcept : value_(initial) {}
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  [[nodiscard]] T load(std::memory_order order,
                       const char* /*site*/ = nullptr) const noexcept {
    return value_.load(order);
  }
  void store(T value, std::memory_order order,
             const char* /*site*/ = nullptr) noexcept {
    value_.store(value, order);
  }
  T exchange(T value, std::memory_order order,
             const char* /*site*/ = nullptr) noexcept {
    return value_.exchange(value, order);
  }
  T fetch_add(T delta, std::memory_order order,
              const char* /*site*/ = nullptr) noexcept {
    return value_.fetch_add(delta, order);
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order success_order,
                             std::memory_order failure_order,
                             const char* /*site*/ = nullptr) noexcept {
    return value_.compare_exchange_weak(expected, desired, success_order,
                                        failure_order);
  }

 private:
  // share-ok: one word; callers place it (CacheAligned locks, packed nodes)
  std::atomic<T> value_{};
};

}  // namespace msq::port
