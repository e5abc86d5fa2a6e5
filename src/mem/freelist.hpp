// Non-blocking free list: Treiber's stack [21] over pool indices.
//
// Paper, section 2: "We use Treiber's simple and efficient non-blocking
// stack algorithm to implement a non-blocking free list."
//
// The stack links nodes through the same `next` field the queue uses (a
// node is either in the queue or in the free list, never both), and the
// counted top pointer defends against ABA exactly as Head/Tail do.
//
// Node requirements: a member `next` of a counted-word type --
// tagged::AtomicTagged (64-bit) or tagged::AtomicTagged128 (cmpxchg16b).
// The list's top is the same word type, so the link-tag discipline below
// holds for whichever word the queue above it chose.
#pragma once

#include <cstdint>

#include "mem/node_pool.hpp"
#include "obs/counters.hpp"
#include "port/cpu.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::mem {

template <typename Node>
class FreeList {
 public:
  /// The counted word (atomic cell) and the counted value it holds.
  using Word = decltype(Node::next);
  using Link = tagged::ValueOf<Word>;

  /// Builds a free list containing every node of `pool`.
  explicit FreeList(NodePool<Node>& pool) : pool_(pool) {
    for (std::uint32_t i = 0; i < pool.capacity(); ++i) {
      push(i);
    }
  }

  FreeList(const FreeList&) = delete;
  FreeList& operator=(const FreeList&) = delete;

  /// Pop a node index, or kNullIndex if the pool is exhausted.
  /// Lock-free: fails or succeeds in a bounded number of *uncontended*
  /// steps; a retry implies another thread completed a push or pop.
  [[nodiscard]] std::uint32_t try_allocate() noexcept {
    for (;;) {
      const Link top = top_.load(std::memory_order_acquire, "fl.pop_top");
      if (top.is_null()) {
        MSQ_COUNT(kPoolRefuse);
        return tagged::kNullIndex;
      }
      const Link next = pool_[top.index()].next.load(
          std::memory_order_acquire, "fl.pop_next");
      if (top_.compare_and_swap(top, top.successor(next.index()),
                                std::memory_order_acq_rel, "fl.pop_cas")) {
        MSQ_COUNT(kPoolGet);
        MSQ_POOL_GAUGE(1);
        return top.index();
      }
      MSQ_COUNT(kPoolCasRetry);
    }
  }

  /// Pop up to `max` node indices with ONE successful CAS on the shared top
  /// (the magazine refill path).  Returns the number written into `out`.
  ///
  /// Safety of the prefix walk: nodes deeper in the stack can only be popped
  /// after the top node is, and every pop or push moves `top_` -- so if the
  /// final counted CAS succeeds, the prefix we walked was never touched.
  [[nodiscard]] std::uint32_t try_allocate_batch(std::uint32_t* out,
                                                std::uint32_t max) noexcept {
    for (;;) {
      const Link top = top_.load(std::memory_order_acquire);
      if (top.is_null()) {
        MSQ_COUNT(kPoolRefuse);
        return 0;
      }
      std::uint32_t n = 0;
      Link it = top;
      while (n < max && !it.is_null()) {
        out[n++] = it.index();
        it = pool_[it.index()].next.load(std::memory_order_acquire);
      }
      if (top_.compare_and_swap(top, top.successor(it.index()), std::memory_order_acq_rel)) {
        MSQ_COUNT_N(kPoolGet, n);
        MSQ_POOL_GAUGE(n);
        return n;
      }
      MSQ_COUNT(kPoolCasRetry);
    }
  }

  /// Push a node back.  The node must have come from this pool and must not
  /// be reachable from any shared structure.
  void free(std::uint32_t index) noexcept {
    MSQ_POOL_GAUGE(-1);
    push(index);
  }

  /// Push a pre-linked chain (head -> ... -> tail through the nodes' `next`
  /// fields, tail's next ignored) with ONE successful CAS -- the magazine
  /// flush path.  The chain must be private to the caller.
  void free_chain(std::uint32_t head, std::uint32_t tail) noexcept {
    if (obs::armed()) {
      // Chain length for the pool gauge: the chain is still private to the
      // caller, so the walk is race-free.  Armed-only, like the gauge.
      std::int64_t len = 1;
      for (std::uint32_t it = head; it != tail;
           it = pool_[it].next.load(std::memory_order_relaxed).index()) {  // relaxed: private chain; see free_chain comment below (proof: mo-sweep:fl.push_link)
        ++len;
      }
      obs::pool_gauge_add(-len);
    }
    // Tag monotonicity (see push): bump the tail's own count; the inner
    // chain links are the caller's writes and must bump likewise.
    // relaxed: the chain is private to the caller until the CAS publishes it (proof: mo-sweep:fl.push_link)
    const auto count =
        pool_[tail].next.load(std::memory_order_relaxed).count() + 1;
    for (;;) {
      const Link top = top_.load(std::memory_order_acquire);
      pool_[tail].next.store(Link(top.index(), count),
                             std::memory_order_release);
      if (top_.compare_and_swap(top, top.successor(head), std::memory_order_acq_rel)) return;
      MSQ_COUNT(kPoolCasRetry);
    }
  }

  /// Number of nodes currently in the free list.  O(n); for tests and the
  /// memory-exhaustion experiment only -- the count is naturally racy.
  [[nodiscard]] std::size_t unsafe_size() const noexcept {
    std::size_t n = 0;
    for (Link it = top_.load(std::memory_order_acquire); !it.is_null();
         it = pool_[it.index()].next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

 private:
  void push(std::uint32_t index) noexcept {
    // A node's link tag must stay MONOTONE across its whole lifetime, not
    // just while it sits in one structure: a queue's link CAS validates
    // `next` against a counted value read earlier, and a reset here would
    // let a recycled node re-expose an old count, making an arbitrarily
    // stale link CAS succeed (the fig_stall wedge: a thread that slept
    // between reading tail->next and CASing it linked a freed node).
    // relaxed: the node is private to the caller until the CAS publishes it (proof: mo-sweep:fl.push_count)
    const auto count =
        pool_[index].next.load(std::memory_order_relaxed, "fl.push_count")
            .count() + 1;
    for (;;) {
      const Link top = top_.load(std::memory_order_acquire, "fl.push_top");
      // Link the node above the current top.  The node is private to us
      // here, so a plain store is enough.
      pool_[index].next.store(Link(top.index(), count),
                              std::memory_order_release, "fl.push_link");
      if (top_.compare_and_swap(top, top.successor(index),
                                std::memory_order_acq_rel, "fl.push_cas")) {
        return;
      }
      MSQ_COUNT(kPoolCasRetry);
    }
  }

  NodePool<Node>& pool_;
  // The hottest word of every pool-backed queue; on its own cache line so
  // allocator traffic never false-shares with the pool reference above.
  alignas(port::kCacheLine) Word top_;
};

namespace detail {
struct FreeListLayoutProbe {
  tagged::AtomicTagged next;
};
}  // namespace detail
// False-sharing audit: the member alignas must propagate to the whole
// struct (so `top_` starts a fresh line) and pad the tail (so whatever is
// allocated after a FreeList cannot share top_'s line).
static_assert(alignof(FreeList<detail::FreeListLayoutProbe>) >=
                  port::kCacheLine,
              "free-list top must start a cache line of its own");
static_assert(sizeof(FreeList<detail::FreeListLayoutProbe>) %
                      port::kCacheLine ==
                  0,
              "free-list top's cache line must not leak into a neighbour");

}  // namespace msq::mem
