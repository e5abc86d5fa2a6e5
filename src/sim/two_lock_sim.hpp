// Figure 2 (the two-lock queue) as a simulated step machine.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/queue_iface.hpp"
#include "sim/sim_freelist.hpp"
#include "sim/sim_lock.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {

class SimTwoLockQueue final : public SimQueue {
 public:
  SimTwoLockQueue(Engine& engine, std::uint32_t capacity,
                  double backoff_max = 1024)
      : engine_(engine),
        pool_(engine, capacity + 1, 2),
        head_(engine.memory().alloc(1)),
        tail_(engine.memory().alloc(1)),
        head_lock_(engine, backoff_max),
        tail_lock_(engine, backoff_max) {
    SimMemory& mem = engine.memory();
    const std::uint32_t dummy = pool_.take_dummy();
    mem.word(head_) = dummy;
    mem.word(tail_) = dummy;
  }

  [[nodiscard]] const char* name() const noexcept override { return "two-lock"; }

  bool enqueue(Proc& p, std::uint64_t value) override {
    const std::uint32_t node = pool_.allocate(p);
    if (node == tagged::kNullIndex) return false;
    p.write(pool_.value_addr(node), value);
    p.write(pool_.next_addr(node), tagged::TaggedIndex{}.bits());

    tail_lock_.lock(p);  // lock(&Q->T_lock)
    p.at("T_HELD");
    const std::uint64_t tail = p.read(tail_);
    p.write(pool_.next_addr(static_cast<std::uint32_t>(tail)),
            tagged::TaggedIndex(node, 0).bits());  // Q->Tail->next = node
    p.write(tail_, node);                          // Q->Tail = node
    tail_lock_.unlock(p);                          // unlock
    return true;
  }

  std::uint64_t dequeue(Proc& p) override {
    head_lock_.lock(p);  // lock(&Q->H_lock)
    p.at("H_HELD");
    const auto dummy =
        static_cast<std::uint32_t>(p.read(head_));  // node = Q->Head
    const auto new_head = tagged::TaggedIndex::from_bits(
        p.read(pool_.next_addr(dummy)));  // new_head = node->next
    if (new_head.is_null()) {                      // queue empty?
      head_lock_.unlock(p);
      return kEmpty;
    }
    const std::uint64_t value =
        p.read(pool_.value_addr(new_head.index()));  // *pvalue = ...
    p.write(head_, new_head.index());  // Q->Head = new_head
    head_lock_.unlock(p);
    pool_.free(p, dummy);  // free(node)
    return value;
  }

  void check_invariants() const override {
    const SimMemory& mem = engine_.memory();
    const auto head = static_cast<std::uint32_t>(mem.peek(head_));
    const auto tail = static_cast<std::uint32_t>(mem.peek(tail_));
    bool tail_in_list = false;
    std::uint32_t hops = 0;
    for (std::uint32_t it = head; it != tagged::kNullIndex;
         it = tagged::TaggedIndex::from_bits(mem.peek(pool_.next_addr(it))).index()) {
      if (it == tail) tail_in_list = true;
      if (++hops > pool_.capacity() + 1) {
        throw std::runtime_error("two-lock invariant: list not connected");
      }
    }
    // Transient exception: inside the enqueue critical section, between
    // linking and swinging Tail, Tail is one behind -- but because those two
    // writes happen under T_lock and the walk runs between steps, Tail may
    // legitimately be the second-to-last node; it must still be in the list.
    if (!tail_in_list) {
      throw std::runtime_error("two-lock invariant: Tail not in list");
    }
  }

 private:
  Engine& engine_;
  SimNodePool pool_;
  Addr head_;
  Addr tail_;
  SimTatasLock head_lock_;
  SimTatasLock tail_lock_;
};

}  // namespace msq::sim
