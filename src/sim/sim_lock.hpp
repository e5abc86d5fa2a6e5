// Simulated test-and-test_and_set lock with bounded exponential backoff --
// the lock of the paper's evaluation, over one sim word.
#pragma once

#include "obs/counters.hpp"
#include "sim/engine.hpp"
#include "sim/mo_table.hpp"
#include "sim/queue_iface.hpp"

namespace msq::sim {

class SimTatasLock {
 public:
  // `mo` overrides the annotated memory orders (mutation sweeps); the
  // defaults mirror sync/tatas_lock.hpp -- rationale in sim/mo_table.hpp.
  SimTatasLock(Engine& engine, double backoff_max = 1024,
               const MoTable* mo = nullptr)
      : word_(engine.memory().alloc(1)),
        backoff_max_(backoff_max),
        mo_spin_(mo_resolve(mo, "lock.spin_load")),
        mo_cas_(mo_resolve(mo, "lock.acquire_cas")),
        mo_unlock_(mo_resolve(mo, "lock.unlock_store")) {}

  void lock(Proc& p) {
    SimBackoff backoff(backoff_max_);
    for (;;) {
      // Local spin on the cached copy until the lock looks free.
      for (;;) {
        if (p.read(word_, mo_spin_) == 0) break;
        MSQ_COUNT(kLockSpin);
        p.work(backoff.next());
      }
      if (p.cas(word_, 0, 1, mo_cas_) == 0) {
        MSQ_COUNT(kLockAcquire);
        return;
      }
      MSQ_COUNT(kLockSpin);
      p.work(backoff.next());  // lost the race to another RMW
    }
  }

  void unlock(Proc& p) { p.write(word_, 0, mo_unlock_); }

  [[nodiscard]] Addr addr() const noexcept { return word_; }

 private:
  Addr word_;
  double backoff_max_;
  check::MemOrder mo_spin_;
  check::MemOrder mo_cas_;
  check::MemOrder mo_unlock_;
};

}  // namespace msq::sim
