// Valois's reference-counted non-blocking queue as a simulated step
// machine, mirroring queues/valois_queue.hpp + mem/refcount_pool.hpp
// (TR 599-corrected).  Node layout: [value, next, refct] where refct is
// (count << 1 | claim).
//
// This is deliberately the most memory-traffic-heavy algorithm in the
// simulator: every SafeRead is read + FAA + re-read, every Release a CAS
// loop -- which is why the paper calls it "comparatively inefficient" yet
// still worth benchmarking (it stays non-blocking under multiprogramming).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/mo_table.hpp"
#include "sim/queue_iface.hpp"
#include "sim/sim_freelist.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {

class SimValoisQueue final : public SimQueue {
 public:
  // `mo` overrides the annotated memory orders (mutation sweeps); the
  // defaults mirror queues/valois_queue.hpp + mem/refcount_pool.hpp --
  // rationale in sim/mo_table.hpp.
  SimValoisQueue(Engine& engine, std::uint32_t capacity,
                 double backoff_max = 1024, const MoTable* mo = nullptr)
      : engine_(engine),
        pool_(engine, capacity + 1, /*words_per_node=*/3),
        head_(engine.memory().alloc(1)),
        tail_(engine.memory().alloc(1)),
        backoff_max_(backoff_max) {
    mo_.init_value = mo_resolve(mo, "valois.init_value");
    mo_.init_next = mo_resolve(mo, "valois.init_next");
    mo_.ptr_read = mo_resolve(mo, "valois.ptr_read");
    mo_.ptr_reread = mo_resolve(mo, "valois.ptr_reread");
    mo_.refct_faa = mo_resolve(mo, "valois.refct_faa");
    mo_.refct_cas = mo_resolve(mo, "valois.refct_cas");
    mo_.link_cas = mo_resolve(mo, "valois.link_cas");
    mo_.value_read = mo_resolve(mo, "valois.value_read");
    mo_.reclaim_next = mo_resolve(mo, "valois.reclaim_next");
    SimMemory& mem = engine.memory();
    // All nodes start claimed (in the free list).
    for (std::uint32_t i = 0; i < pool_.capacity(); ++i) {
      mem.word(refct_addr(i)) = 1;
    }
    // Pop the dummy raw; count 2 = Head link + Tail link, claim clear.
    const std::uint32_t dummy = pool_.take_dummy();
    mem.word(refct_addr(dummy)) = 4;  // two references
    mem.word(head_) = tagged::TaggedIndex(dummy, 0).bits();
    mem.word(tail_) = tagged::TaggedIndex(dummy, 0).bits();
  }

  [[nodiscard]] const char* name() const noexcept override { return "Valois"; }

  bool enqueue(Proc& p, std::uint64_t value) override {
    const std::uint32_t node = allocate(p);
    if (node == tagged::kNullIndex) return false;
    p.write(pool_.value_addr(node), value, mo_.init_value);
    p.write(pool_.next_addr(node), tagged::TaggedIndex{}.bits(),
            mo_.init_next);

    SimBackoff backoff(backoff_max_);
    for (;;) {
      const auto tail = safe_read(p, tail_);
      const auto next = tagged::TaggedIndex::from_bits(
          p.read(pool_.next_addr(tail.index()), mo_.ptr_read));
      if (next.is_null()) {
        p.at("V_LINK");
        const bool linked =
            rc_cas(p, pool_.next_addr(tail.index()), next, node);
        if (linked) {
          // Single attempt to swing Tail; failure lets Tail lag (safely,
          // thanks to the reference counts).
          rc_cas(p, tail_, tail, node);
          release(p, tail.index());
          break;
        }
        p.work(backoff.next());
      } else {
        rc_cas(p, tail_, tail, next.index());  // help Tail forward
      }
      release(p, tail.index());
    }
    release(p, node);  // drop the allocation reference
    return true;
  }

  std::uint64_t dequeue(Proc& p) override {
    SimBackoff backoff(backoff_max_);
    for (;;) {
      const auto head = safe_read(p, head_);
      const auto first = safe_read_cell(p, pool_.next_addr(head.index()));
      if (first.is_null()) {
        release(p, head.index());
        return kEmpty;
      }
      p.at("V_SWING");
      if (rc_cas(p, head_, head, first.index())) {
        const std::uint64_t value =
            p.read(pool_.value_addr(first.index()), mo_.value_read);
        release(p, head.index());
        release(p, first.index());
        return value;
      }
      release(p, head.index());
      release(p, first.index());
      p.work(backoff.next());
    }
  }

  void check_invariants() const override {
    const SimMemory& mem = engine_.memory();
    const auto head = tagged::TaggedIndex::from_bits(mem.peek(head_));
    const auto tail = tagged::TaggedIndex::from_bits(mem.peek(tail_));
    std::uint32_t hops = 0;
    for (auto it = head; !it.is_null();
         it = tagged::TaggedIndex::from_bits(mem.peek(pool_.next_addr(it.index())))) {
      if (++hops > pool_.capacity() + 1) {
        throw std::runtime_error("Valois invariant: list not connected");
      }
    }
    // Nodes referenced by Head/Tail must be live (claim bit clear, count>0).
    for (const auto ptr : {head, tail}) {
      const std::uint64_t rc = mem.peek(refct_addr(ptr.index()));
      if ((rc & 1) != 0 || rc < 2) {
        throw std::runtime_error("Valois invariant: live pointer to claimed node");
      }
    }
  }

 private:
  [[nodiscard]] Addr refct_addr(std::uint32_t node) const noexcept {
    return pool_.extra_addr(node, 0);
  }

  /// Allocate with the TR 599 claim-clearing add (+2 ref, -1 claim).
  std::uint32_t allocate(Proc& p) {
    const std::uint32_t node = pool_.allocate(p);
    if (node != tagged::kNullIndex) {
      p.faa(refct_addr(node), 1, mo_.refct_faa);
    }
    return node;
  }

  tagged::TaggedIndex safe_read(Proc& p, Addr shared_ptr_cell) {
    return safe_read_cell(p, shared_ptr_cell);
  }

  /// Valois SafeRead: increment-then-revalidate.
  tagged::TaggedIndex safe_read_cell(Proc& p, Addr cell) {
    for (;;) {
      const auto seen = tagged::TaggedIndex::from_bits(
          p.read(cell, mo_.ptr_read));
      if (seen.is_null()) return seen;
      p.faa(refct_addr(seen.index()), 2, mo_.refct_faa);
      if (p.read(cell, mo_.ptr_reread) == seen.bits()) return seen;
      release(p, seen.index());
    }
  }

  /// DecrementAndTestAndSet + recursive reclamation.
  void release(Proc& p, std::uint32_t node) {
    if (node == tagged::kNullIndex) return;
    std::uint32_t current = node;
    for (;;) {  // iterative tail-recursion over the reclamation chain
      bool reclaim = false;
      for (;;) {
        // relaxed: optimistic first read; the CAS below validates and orders
        const std::uint64_t old =
            p.read(refct_addr(current), check::MemOrder::kRelaxed);
        const std::uint64_t desired = (old == 2) ? 1 : old - 2;
        if (p.cas(refct_addr(current), old, desired, mo_.refct_cas) == old) {
          reclaim = (old == 2);
          break;
        }
      }
      if (!reclaim) return;
      // Sole owner of a dead node: grab its outgoing link, recycle it,
      // then release the link target (the pinning cascade).
      const auto next = tagged::TaggedIndex::from_bits(
          p.read(pool_.next_addr(current), mo_.reclaim_next));
      pool_.free(p, current);
      if (next.is_null()) return;
      current = next.index();
    }
  }

  /// CAS of a shared link with CopyRef/Release bookkeeping.
  bool rc_cas(Proc& p, Addr cell, tagged::TaggedIndex expected,
              std::uint32_t new_index) {
    p.faa(refct_addr(new_index), 2,
          mo_.refct_faa);  // reference for the new link
    if (p.cas(cell, expected.bits(), expected.successor(new_index).bits(),
              mo_.link_cas) == expected.bits()) {
      if (!expected.is_null()) release(p, expected.index());
      return true;
    }
    release(p, new_index);
    return false;
  }

  struct Orders {
    check::MemOrder init_value, init_next, ptr_read, ptr_reread;
    check::MemOrder refct_faa, refct_cas, link_cas, value_read, reclaim_next;
  };

  Engine& engine_;
  SimNodePool pool_;
  Addr head_;
  Addr tail_;
  double backoff_max_;
  Orders mo_{};
};

}  // namespace msq::sim
