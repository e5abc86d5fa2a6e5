// Mellor-Crummey's concurrent queue (UR TR 229, 1987): the paper's
// representative of algorithms that are "lock-free but not non-blocking:
// they do not use locking mechanisms, but they allow a slow process to
// delay faster processes indefinitely".
//
// Reconstruction (TR 229 itself is not reproduced in the paper) built on
// the paper's precise structural hint: the algorithm "uses compare_and_swap
// in a fetch_and_store-modify-compare_and_swap sequence rather than the
// usual read-modify-compare_and_swap sequence", which is why it needs no
// ABA precautions -- and why it is blocking.  Concretely, on a dummy-headed
// linked list:
//
//   enqueue:  prev = FETCH_AND_STORE(Tail, node)   // unconditional claim
//             prev->next = node                     // MODIFY: the link
//   dequeue:  read Head, read Head->next,
//             if next missing: queue is empty iff Tail == Head, else an
//                 enqueuer is mid-link -> WAIT (the blocking window);
//             COMPARE_AND_SWAP Head forward, free the old dummy.
//
// No operation ever retries an update to Tail (the swap always succeeds),
// so the uncontended path is shorter than the MS queue's -- matching the
// paper's remark that MC "could be expected to display lower constant
// overhead in the absence of unpredictable process delays, but is likely to
// degenerate on a multiprogrammed system": an enqueuer preempted between
// the swap and the link stalls every dequeuer once the queue drains to its
// node.
//
// Node reuse is safe without any extra machinery: a node is freed only
// after Head moves past it, which requires its `next` link to have been
// observed -- i.e. the enqueuer that might still write into it has already
// finished.  (Head still carries a modification counter for the dequeuers'
// CAS race among themselves.)
#pragma once

#include <cstdint>
#include <optional>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "sync/backoff.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {

/// `Word` is the counted word of Head, Tail and every link, as in MsQueue;
/// each access passes its site name (sim/mo_table.hpp), so the simulator
/// runs this code over sim::SimWord (sim/shipped.hpp).
template <typename T, typename BackoffPolicy = sync::Backoff,
          typename Word = tagged::AtomicTagged>
class MellorCrummeyQueue {
  using Link = tagged::ValueOf<Word>;

 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kLockFreeBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  explicit MellorCrummeyQueue(std::uint32_t capacity)
      : pool_(capacity + 1), freelist_(pool_) {
    const std::uint32_t dummy = freelist_.try_allocate();
    pool_[dummy].next.store(Link{}, std::memory_order_release);
    head_.value.store(Link(dummy, 0), std::memory_order_release);
    tail_.value.store(Link(dummy, 0), std::memory_order_release);
  }

  MellorCrummeyQueue(const MellorCrummeyQueue&) = delete;
  MellorCrummeyQueue& operator=(const MellorCrummeyQueue&) = delete;

  /// Returns false iff the node pool is exhausted.  Never retries: the
  /// fetch_and_store claims the tail position unconditionally.
  bool try_enqueue(T value) noexcept {
    const std::uint32_t node = freelist_.try_allocate();
    if (node == tagged::kNullIndex) return false;
    pool_[node].value.put(value, "mc.value_write");
    pool_[node].next.store(Link{}, std::memory_order_release, "mc.next_init");
    // fetch_and_store: swing Tail to the new node, learn the predecessor.
    const Link prev = tail_.value.exchange(
        Link(node, 0), std::memory_order_acq_rel, "mc.tail_swap");
    // modify: link the predecessor.  A stall HERE is the blocking window.
    MSQ_PROBE("mc.link");
    pool_[prev.index()].next.store(Link(node, 0), std::memory_order_release,
                                   "mc.link_store");
    MSQ_COUNT(kEnqueue);
    return true;
  }

  /// Returns false iff the queue is empty.  WAITS (blocking) for an
  /// enqueuer that has swapped Tail but not yet linked.
  bool try_dequeue(T& out) noexcept {
    BackoffPolicy backoff;
    for (;;) {
      const Link head =
          head_.value.load(std::memory_order_acquire, "mc.head_load");
      const Link next = pool_[head.index()].next.load(
          std::memory_order_acquire, "mc.next_load");
      if (next.is_null()) {
        const Link tail =
            tail_.value.load(std::memory_order_acquire, "mc.tail_load");
        if (tail.index() == head.index() &&
            head == head_.value.load(std::memory_order_acquire,
                                     "mc.head_reload")) {
          MSQ_COUNT(kDequeueEmpty);
          return false;  // genuinely empty
        }
        // An enqueuer holds the claim on head->next: wait for its link.
        // The wait iterations are the algorithm's blocking cost; account
        // them like lock spins (this IS waiting on another thread's CS).
        MSQ_COUNT(kLockSpin);
        backoff.pause();
        continue;
      }
      // Read value before the CAS (another dequeuer might free `next`).
      const T value = pool_[next.index()].value.get("mc.value_read");
      MSQ_COUNT(kCasAttempt);
      if (head_.value.compare_and_swap(head, head.successor(next.index()),
                                       std::memory_order_acq_rel,
                                       "mc.head_cas")) {
        out = value;
        freelist_.free(head.index());
        MSQ_COUNT(kDequeue);
        return true;
      }
      MSQ_COUNT(kCasFail);
      backoff.pause();
    }
  }

  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  /// Head, Tail and the link out of node `index` (racy snapshots; for
  /// structural checks between simulator steps).
  [[nodiscard]] Link unsafe_head() const noexcept {
    return head_.value.load(std::memory_order_acquire);
  }
  [[nodiscard]] Link unsafe_tail() const noexcept {
    return tail_.value.load(std::memory_order_acquire);
  }
  [[nodiscard]] Link unsafe_next(std::uint32_t index) const noexcept {
    return pool_[index].next.load(std::memory_order_acquire);
  }

 private:
  struct Node {
    mem::CellOf<T, Word> value;
    Word next;
  };

  mem::NodePool<Node> pool_;
  mem::FreeList<Node> freelist_;
  port::CacheAligned<Word> head_;
  port::CacheAligned<Word> tail_;
};

}  // namespace msq::queues
