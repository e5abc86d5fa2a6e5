// The two classic weak-memory litmus tests as simulated worlds, used by
// the memory-order mutation sweep and the weak-memory tests.
//
//  * SB (store buffering, Dekker's handshake): each process stores its own
//    flag then loads the peer's.  Under SC at least one process sees the
//    other's store; under TSO with non-seq_cst stores both loads can hit
//    before either buffer flushes and BOTH see zero.  This is the outcome
//    only store-buffer execution can produce -- no happens-before race is
//    involved (every access is atomic).
//
//  * MP (message passing): the producer writes plain data then releases a
//    flag; the consumer acquires the flag and, if set, reads the data.
//    TSO's FIFO buffers preserve this even relaxed, so the weakening is
//    invisible to execution -- but losing the release/acquire pair severs
//    the synchronizes-with edge and the hb tracker reports the plain data
//    race.  SB and MP together exercise both detection layers.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/mo_table.hpp"

namespace msq::sim {

class SbLitmus {
 public:
  explicit SbLitmus(Engine& engine, const MoTable* mo = nullptr)
      : x_(engine.memory().alloc(1)),
        y_(engine.memory().alloc(1)),
        mo_store_(mo_resolve(mo, "sb.store_flag")),
        mo_load_(mo_resolve(mo, "sb.load_peer")) {}

  /// Process `who` (0 or 1) stores its flag, then loads the peer's.
  void run(Proc& p, int who) {
    const Addr mine = who == 0 ? x_ : y_;
    const Addr peer = who == 0 ? y_ : x_;
    p.write(mine, 1, mo_store_);
    const std::uint64_t seen = p.read(peer, mo_load_);
    r_[who] = seen;
  }

  /// The SC-forbidden outcome; assert !both_zero() after every execution.
  [[nodiscard]] bool both_zero() const noexcept {
    return r_[0] == 0 && r_[1] == 0;
  }

  [[nodiscard]] std::uint64_t result(int who) const noexcept { return r_[who]; }

 private:
  Addr x_;
  Addr y_;
  check::MemOrder mo_store_;
  check::MemOrder mo_load_;
  std::uint64_t r_[2] = {1, 1};
};

class MpLitmus {
 public:
  explicit MpLitmus(Engine& engine, const MoTable* mo = nullptr)
      : data_(engine.memory().alloc(1)),
        flag_(engine.memory().alloc(1)),
        mo_store_(mo_resolve(mo, "mp.flag_store")),
        mo_load_(mo_resolve(mo, "mp.flag_load")) {}

  void producer(Proc& p) {
    p.write(data_, 42, check::MemOrder::kPlain);
    p.write(flag_, 1, mo_store_);
  }

  void consumer(Proc& p) {
    if (p.read(flag_, mo_load_) == 1) {
      const std::uint64_t data = p.read(data_, check::MemOrder::kPlain);
      observed_ = data;
      saw_flag_ = true;
    }
  }

  /// Value-level check: a consumer that saw the flag must see the data.
  [[nodiscard]] bool stale_data() const noexcept {
    return saw_flag_ && observed_ != 42;
  }

 private:
  Addr data_;
  Addr flag_;
  check::MemOrder mo_store_;
  check::MemOrder mo_load_;
  std::uint64_t observed_ = 0;
  bool saw_flag_ = false;
};

}  // namespace msq::sim
