// Test-and-test_and_set lock with bounded exponential backoff.
//
// This is the exact lock the paper uses for its lock-based algorithms
// (section 4, citing Mellor-Crummey & Scott [12] and Anderson [1]): spin
// reading the flag locally (cache hit) and only attempt the atomic RMW when
// the flag is observed free; back off exponentially after a failed RMW.
//
// `Flag` is the flag's atomic cell and each access names its site
// (sim/mo_table.hpp "lock.*"): the simulator runs this lock over
// sim::SimAtomic<bool>, with a BackoffPolicy whose relax() charges the
// local spin as backoff work (sim/shipped.hpp).
#pragma once

#include <atomic>

#include "port/atomic.hpp"
#include "sync/backoff.hpp"

namespace msq::sync {

template <typename BackoffPolicy = Backoff, typename Flag = port::Atomic<bool>>
class BasicTatasLock {
 public:
  BasicTatasLock() noexcept = default;
  BasicTatasLock(const BasicTatasLock&) = delete;
  BasicTatasLock& operator=(const BasicTatasLock&) = delete;

  void lock() noexcept {
    BackoffPolicy backoff;
    obs::SpinTally spins;  // tallied in a register, published once on exit
    for (;;) {
      // Local spin: read-only, stays in this processor's cache until the
      // holder's release invalidates the line.
      // relaxed: the winning exchange below is the acquire
      while (locked_.load(std::memory_order_relaxed, "lock.spin_load")) {
        spins.bump();
        backoff.relax();
      }
      if (!locked_.exchange(true, std::memory_order_acquire,
                            "lock.acquire_cas")) {
        spins.commit(obs::Counter::kLockSpin);
        MSQ_COUNT(kLockAcquire);
        return;
      }
      spins.bump();     // the RMW itself lost a race: that is a spin too
      backoff.pause();  // somebody grabbed it first
    }
  }

  bool try_lock() noexcept {
    // relaxed: optimistic pre-check; the exchange is the acquire
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept {
    locked_.store(false, std::memory_order_release, "lock.unlock_store");
  }

 private:
  // The flag IS the whole lock; callers place it (the queues wrap their
  // locks in port::CacheAligned at the use site).
  Flag locked_;
};

using TatasLock = BasicTatasLock<Backoff>;
using TatasLockNoBackoff = BasicTatasLock<NullBackoff>;

}  // namespace msq::sync
