// Mellor-Crummey's lock-free-but-blocking queue as a simulated step
// machine (same FAS-list reconstruction as queues/mellor_crummey_queue.hpp:
// fetch_and_store the Tail claim, then link -- "MC_LINK" marks the blocking
// window between the two, so the liveness tests can stall a process exactly
// where the paper says the algorithm degenerates).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/queue_iface.hpp"
#include "sim/sim_freelist.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {

class SimMcQueue final : public SimQueue {
 public:
  SimMcQueue(Engine& engine, std::uint32_t capacity, double backoff_max = 1024)
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

  [[nodiscard]] const char* name() const noexcept override { return "MC"; }

  bool enqueue(Proc& p, std::uint64_t value) override {
    const std::uint32_t node = pool_.allocate(p);
    if (node == tagged::kNullIndex) return false;
    p.write(pool_.value_addr(node), value);
    p.write(pool_.next_addr(node), tagged::TaggedIndex{}.bits());
    // fetch_and_store: claim the tail position unconditionally.
    const auto prev = tagged::TaggedIndex::from_bits(
        p.swap(tail_, tagged::TaggedIndex(node, 0).bits()));
    p.at("MC_LINK");  // the blocking window
    p.write(pool_.next_addr(prev.index()),
            tagged::TaggedIndex(node, 0).bits());
    return true;
  }

  std::uint64_t dequeue(Proc& p) override {
    SimBackoff backoff(backoff_max_);
    for (;;) {
      const auto head = tagged::TaggedIndex::from_bits(p.read(head_));
      const auto next = tagged::TaggedIndex::from_bits(
          p.read(pool_.next_addr(head.index())));
      if (next.is_null()) {
        const auto tail = tagged::TaggedIndex::from_bits(p.read(tail_));
        const std::uint64_t head_again = p.read(head_);
        if (tail.index() == head.index() && head.bits() == head_again) {
          return kEmpty;
        }
        // An enqueuer holds the claim on head->next: WAIT for its link.
        p.work(backoff.next());
        continue;
      }
      const std::uint64_t value = p.read(pool_.value_addr(next.index()));
      p.at("MC_SWING");
      if (p.cas(head_, head.bits(), head.successor(next.index()).bits()) ==
          head.bits()) {
        pool_.free(p, head.index());
        return value;
      }
      p.work(backoff.next());
    }
  }

  void check_invariants() const override {
    // The list may legitimately be split mid-link (that IS the algorithm's
    // blocking window), so connectivity-to-tail cannot be asserted; absence
    // of cycles from Head can.
    const SimMemory& mem = engine_.memory();
    const auto head = tagged::TaggedIndex::from_bits(mem.peek(head_));
    std::uint32_t hops = 0;
    for (auto it = head; !it.is_null();
         it = tagged::TaggedIndex::from_bits(mem.peek(pool_.next_addr(it.index())))) {
      if (++hops > pool_.capacity() + 1) {
        throw std::runtime_error("MC invariant: cycle reachable from Head");
      }
    }
  }

 private:
  Engine& engine_;
  SimNodePool pool_;
  Addr head_;
  Addr tail_;
  double backoff_max_;
};

}  // namespace msq::sim
