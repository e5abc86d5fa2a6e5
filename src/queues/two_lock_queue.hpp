// The two-lock concurrent queue -- the paper's second contribution
// (Figure 2): separate Head and Tail locks so one enqueue and one dequeue
// proceed concurrently, with a dummy node at the head of the list so
// "enqueuers never have to access Head, and dequeuers never have to access
// Tail, thus avoiding potential deadlock problems that arise from processes
// trying to acquire the locks in different orders."
//
// The paper benchmarks this with test-and-test_and_set locks with bounded
// exponential backoff; `Lock` is a template parameter so the lock ablation
// can swap in TAS, ticket or MCS locks.
//
// Node allocation: enqueuers allocate while holding only T_lock and
// dequeuers free while holding only H_lock, so the free list must itself be
// thread-safe between one allocator and one deallocator; we reuse the
// Treiber free list (also what the paper's C code does).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "sync/tatas_lock.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {

/// `Word` is the counted word of the links (the free list's and the
/// queue's); it also selects the cell of every lock-guarded field
/// (mem::GuardedOf), so the simulator runs this code over its own words
/// (sim/shipped.hpp).  Each access passes its site name, numbered after
/// Figure 2's lines.
template <typename T, typename Lock = sync::TatasLock,
          typename Word = tagged::AtomicTagged>
class TwoLockQueue {
  using Link = tagged::ValueOf<Word>;

 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  explicit TwoLockQueue(std::uint32_t capacity)
      : pool_(capacity + 1), freelist_(pool_) {
    // initialize(Q): node = new_node(); node->next = NULL;
    //                Q->Head = Q->Tail = node; locks free
    const std::uint32_t dummy = freelist_.try_allocate();
    pool_[dummy].next.store(Link{}, std::memory_order_release);
    head_.value.put(dummy);
    tail_.value.put(dummy);
  }

  TwoLockQueue(const TwoLockQueue&) = delete;
  TwoLockQueue& operator=(const TwoLockQueue&) = delete;

  bool try_enqueue(T value) {
    // node = new_node(); node->value = value; node->next = NULL
    // (allocation outside the critical section: CP.43, and the free list is
    //  lock-free so this cannot deadlock with a dequeuer freeing)
    const std::uint32_t node = freelist_.try_allocate();
    if (node == tagged::kNullIndex) return false;
    pool_[node].value.put(std::move(value), "twolock.E2.value_write");
    pool_[node].next.store(Link{}, std::memory_order_release,
                           "twolock.E3.next_init");

    {
      std::scoped_lock guard(tail_lock_.value);       // lock(&Q->T_lock)
      MSQ_PROBE("twolock.T_held");  // a thread halted here wedges enqueuers
      const std::uint32_t tail = tail_.value.get("twolock.E5.tail_read");
      pool_[tail].next.store(Link(node, 0),           // Q->Tail->next = node
                             std::memory_order_release,
                             "twolock.E5.link_write");
      tail_.value.put(node, "twolock.E6.tail_write"); // Q->Tail = node
    }                                                 // unlock(&Q->T_lock)
    MSQ_COUNT(kEnqueue);
    return true;
  }

  bool try_dequeue(T& out) {
    std::uint32_t old_dummy;
    {
      std::scoped_lock guard(head_lock_.value);       // lock(&Q->H_lock)
      MSQ_PROBE("twolock.H_held");  // a thread halted here wedges dequeuers
      old_dummy = head_.value.get("twolock.D2.head_read");  // node = Q->Head
      const Link new_head =                           // new_head = node->next
          pool_[old_dummy].next.load(std::memory_order_acquire,
                                     "twolock.D3.next_read");
      if (new_head.is_null()) {                       // is queue empty?
        MSQ_COUNT(kDequeueEmpty);
        return false;                                 // unlock via RAII
      }
      pool_[new_head.index()].value.move_to(          // *pvalue = new_head->value
          out, "twolock.D8.value_read");
      head_.value.put(new_head.index(),               // Q->Head = new_head
                      "twolock.D9.head_write");
    }                                                 // unlock(&Q->H_lock)
    freelist_.free(old_dummy);                        // free(node)
    MSQ_COUNT(kDequeue);
    return true;
  }

  [[nodiscard]] std::optional<T> try_dequeue() {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  /// Head, Tail and the link out of node `index` (racy snapshots; for
  /// structural checks between simulator steps).
  [[nodiscard]] std::uint32_t unsafe_head() const { return head_.value.get(); }
  [[nodiscard]] std::uint32_t unsafe_tail() const { return tail_.value.get(); }
  [[nodiscard]] Link unsafe_next(std::uint32_t index) const noexcept {
    return pool_[index].next.load(std::memory_order_acquire);
  }

 private:
  struct Node {
    mem::GuardedOf<T, Word> value;
    Word next;
  };

  mem::NodePool<Node> pool_;
  mem::FreeList<Node> freelist_;
  // Each lock lives with the pointer it guards, on its own cache line, so
  // enqueuers and dequeuers touch disjoint lines (the whole point of the
  // algorithm).
  port::CacheAligned<mem::GuardedOf<std::uint32_t, Word>> head_;  // head_lock_
  port::CacheAligned<mem::GuardedOf<std::uint32_t, Word>> tail_;  // tail_lock_
  port::CacheAligned<Lock> head_lock_;
  port::CacheAligned<Lock> tail_lock_;
};

}  // namespace msq::queues
