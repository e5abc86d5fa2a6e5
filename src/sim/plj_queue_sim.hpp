// Prakash-Lee-Johnson snapshot queue as a simulated step machine (same
// reconstruction notes as queues/plj_queue.hpp): every operation first
// takes a validated snapshot of Head, Tail AND Tail->next -- two shared
// variables re-checked, vs. the MS queue's one -- then CASes, helping
// lagging tails.  The extra snapshot traffic is the measurable difference
// from SimMsQueue, exactly as in the paper's Figure 3.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/queue_iface.hpp"
#include "sim/sim_freelist.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {

class SimPljQueue final : public SimQueue {
 public:
  SimPljQueue(Engine& engine, std::uint32_t capacity, double backoff_max = 1024)
      : engine_(engine),
        pool_(engine, capacity + 1, 2),
        head_(engine.memory().alloc(1)),
        tail_(engine.memory().alloc(1)),
        backoff_max_(backoff_max) {
    SimMemory& mem = engine.memory();
    const std::uint32_t dummy = pool_.take_dummy();
    mem.word(head_) = tagged::TaggedIndex(dummy, 0).bits();
    mem.word(tail_) = tagged::TaggedIndex(dummy, 0).bits();
  }

  [[nodiscard]] const char* name() const noexcept override { return "PLJ"; }

  bool enqueue(Proc& p, std::uint64_t value) override {
    const std::uint32_t node = pool_.allocate(p);
    if (node == tagged::kNullIndex) return false;
    p.write(pool_.value_addr(node), value);
    p.write(pool_.next_addr(node), tagged::TaggedIndex{}.bits());

    SimBackoff backoff(backoff_max_);
    for (;;) {
      tagged::TaggedIndex head, tail, tail_next;
      snapshot(p, head, tail, tail_next);
      if (!tail_next.is_null()) {
        // Complete the slower enqueuer's Tail swing (helping).
        p.cas(tail_, tail.bits(),
              tail.successor(tail_next.index()).bits());
        continue;
      }
      p.at("PLJ_LINK");
      if (p.cas(pool_.next_addr(tail.index()), tail_next.bits(),
                tail_next.successor(node).bits()) == tail_next.bits()) {
        p.cas(tail_, tail.bits(), tail.successor(node).bits());
        return true;
      }
      p.work(backoff.next());
    }
  }

  std::uint64_t dequeue(Proc& p) override {
    SimBackoff backoff(backoff_max_);
    for (;;) {
      tagged::TaggedIndex head, tail, tail_next;
      snapshot(p, head, tail, tail_next);
      const auto first = tagged::TaggedIndex::from_bits(
          p.read(pool_.next_addr(head.index())));
      const std::uint64_t head_again = p.read(head_);
      if (head.bits() != head_again) continue;  // stale
      if (head.index() == tail.index()) {
        if (first.is_null()) return kEmpty;
        p.cas(tail_, tail.bits(), tail.successor(first.index()).bits());
        continue;
      }
      if (first.is_null()) continue;
      const std::uint64_t value = p.read(pool_.value_addr(first.index()));
      p.at("PLJ_SWING");
      if (p.cas(head_, head.bits(), head.successor(first.index()).bits()) ==
          head.bits()) {
        pool_.free(p, head.index());
        return value;
      }
      p.work(backoff.next());
    }
  }

  void check_invariants() const override {
    const SimMemory& mem = engine_.memory();
    const auto head = tagged::TaggedIndex::from_bits(mem.peek(head_));
    const auto tail = tagged::TaggedIndex::from_bits(mem.peek(tail_));
    bool tail_in_list = false;
    std::uint32_t hops = 0;
    for (auto it = head; !it.is_null();
         it = tagged::TaggedIndex::from_bits(mem.peek(pool_.next_addr(it.index())))) {
      if (it.index() == tail.index()) tail_in_list = true;
      if (++hops > pool_.capacity() + 1) {
        throw std::runtime_error("PLJ invariant: list not connected");
      }
    }
    if (!tail_in_list) {
      throw std::runtime_error("PLJ invariant: Tail not in list");
    }
  }

 private:
  /// The PLJ snapshot: read Head, Tail, Tail->next and re-validate BOTH
  /// shared pointers until consistent.
  void snapshot(Proc& p, tagged::TaggedIndex& head,
                tagged::TaggedIndex& tail,
                tagged::TaggedIndex& tail_next) {
    for (;;) {
      head = tagged::TaggedIndex::from_bits(p.read(head_));
      tail = tagged::TaggedIndex::from_bits(p.read(tail_));
      tail_next = tagged::TaggedIndex::from_bits(
          p.read(pool_.next_addr(tail.index())));
      const std::uint64_t head_again = p.read(head_);
      const std::uint64_t tail_again = p.read(tail_);
      if (head.bits() == head_again && tail.bits() == tail_again) {
        return;
      }
    }
  }

  Engine& engine_;
  SimNodePool pool_;
  Addr head_;
  Addr tail_;
  double backoff_max_;
};

}  // namespace msq::sim
