// The non-blocking concurrent queue of Michael & Scott -- the paper's
// primary contribution (Figure 1), with counted pointers.  The counted word
// is a template parameter covering both options the paper names for the
// ABA defence: by default a 32-bit pool index + 32-bit modification
// counter packed into one 64-bit word (the single-word alternative), or
// tagged::AtomicTagged128, the same index with a 64-bit counter CASed with
// cmpxchg16b (double-word CAS).  One body serves both, so a fix to the
// algorithm or to the free list reaches both words at once.
//
// Structure: a singly-linked list with Head and Tail counted pointers.
// Head always points to a dummy node (the first node in the list); Tail
// points to the last or second-to-last node.  Nodes are recycled through a
// Treiber-stack free list.  Dequeue ensures Tail never points at (or before)
// a dequeued node, which is what makes immediate reuse safe.
//
// Line numbering in comments follows Figure 1 (E1..E13, D1..D15) so the
// implementation can be audited against the paper, and so the liveness
// tests (tests/sim_nonblocking_test.cpp) can speak the same language.
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
#include "tagged/atomic_tagged128.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {

/// Lock-free MPMC FIFO queue.  `T` must be trivially copyable and at most
/// 8 bytes (see mem/value_cell.hpp).  `BackoffPolicy` is applied after a
/// failed CAS (sync::NullBackoff disables it for the ablation).  `Alloc`
/// selects the node allocator: the paper's plain Treiber free list by
/// default, or mem::MagazineAllocator for the magazine ablation
/// (bench/ablate_magazine.cpp) -- same pool, batched refills/flushes.
/// `Word` is the counted word of Head, Tail and every link:
/// tagged::AtomicTagged (64-bit) or tagged::AtomicTagged128 (cmpxchg16b,
/// bench/ablate_reclaim.cpp); the free list takes it from Node::next.
template <typename T, typename BackoffPolicy = sync::Backoff,
          template <typename> class Alloc = mem::FreeList,
          typename Word = tagged::AtomicTagged>
class MsQueue {
  using Link = tagged::ValueOf<Word>;

 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  /// `capacity` is the maximum number of queued items; one extra node is
  /// reserved for the dummy.
  explicit MsQueue(std::uint32_t capacity)
      : pool_(capacity + 1), freelist_(pool_) {
    // initialize(Q): node = new_node(); node->next.ptr = NULL;
    //                Q->Head = Q->Tail = node
    const std::uint32_t dummy = freelist_.try_allocate();
    pool_[dummy].next.store(Link{}, std::memory_order_release);
    head_.value.store(Link(dummy, 0), std::memory_order_release);
    tail_.value.store(Link(dummy, 0), std::memory_order_release);
  }

  MsQueue(const MsQueue&) = delete;
  MsQueue& operator=(const MsQueue&) = delete;

  /// enqueue(Q, value).  Returns false iff the node pool is exhausted.
  bool try_enqueue(T value) noexcept {
    // E1: node = new_node()
    const std::uint32_t node = freelist_.try_allocate();
    if (node == tagged::kNullIndex) return false;
    // E2: node->value = value;  E3: node->next.ptr = NULL
    // The null is COUNTED: preserving and bumping the node's tag keeps its
    // link count monotone across recycles (FreeList::push has the full
    // argument), so a stale E9 CAS against a previous life of this node
    // can never succeed.  The paper's E3 resets the count; with a shared
    // free list that re-exposes old counts and voids the E7/E9 guard.
    pool_[node].value.put(value);
    const Link stale =
        pool_[node].next.load(std::memory_order_acquire);
    pool_[node].next.store(
        Link(tagged::kNullIndex, stale.count() + 1),
        std::memory_order_release);

    BackoffPolicy backoff;
    for (;;) {  // E4: repeat
      const Link tail = tail_.value.load(std::memory_order_acquire);       // E5
      const Link next = pool_[tail.index()].next.load(std::memory_order_acquire);  // E6
      if (tail == tail_.value.load(std::memory_order_acquire)) {  // E7: are tail and next consistent?
        if (next.is_null()) {            // E8: was Tail pointing to the last node?
          // E9: try to link node at the end of the linked list
          MSQ_PROBE_COUNT("ms.E9", kCasAttempt);
          if (pool_[tail.index()].next.compare_and_swap(
                  next, next.successor(node), std::memory_order_acq_rel)) {
            // E10: break -- enqueue is done.
            // E13: try to swing Tail to the inserted node.  A thread halted
            // HERE has committed the enqueue but left Tail lagging -- the
            // window the helping paths (E12/D9) exist for.
            MSQ_PROBE("ms.E13");
            tail_.value.compare_and_swap(tail, tail.successor(node), std::memory_order_acq_rel);
            MSQ_COUNT(kEnqueue);
            return true;
          }
          MSQ_COUNT(kCasFail);
          backoff.pause();
        } else {
          // E12: Tail was not pointing to the last node; try to swing it
          tail_.value.compare_and_swap(tail, tail.successor(next.index()), std::memory_order_acq_rel);
        }
      }
    }
  }

  /// dequeue(Q, pvalue): boolean.  Returns false iff the queue was empty.
  bool try_dequeue(T& out) noexcept {
    BackoffPolicy backoff;
    for (;;) {  // D1: repeat
      const Link head = head_.value.load(std::memory_order_acquire);  // D2
      const Link tail = tail_.value.load(std::memory_order_acquire);  // D3
      const Link next = pool_[head.index()].next.load(std::memory_order_acquire);  // D4
      if (head == head_.value.load(std::memory_order_acquire)) {      // D5: consistent?
        if (head.index() == tail.index()) {  // D6: empty or Tail falling behind?
          if (next.is_null()) {              // D7: is queue empty?
            MSQ_COUNT(kDequeueEmpty);
            return false;                    // D8
          }
          // D9: Tail is falling behind; try to advance it
          tail_.value.compare_and_swap(tail, tail.successor(next.index()), std::memory_order_acq_rel);
        } else {
          // D11: read value before CAS; otherwise another dequeue might
          // free the next node
          const T value = pool_[next.index()].value.get();
          // D12: try to swing Head to the next node
          MSQ_PROBE_COUNT("ms.D12", kCasAttempt);
          if (head_.value.compare_and_swap(head, head.successor(next.index()), std::memory_order_acq_rel)) {
            out = value;                     // (D11's *pvalue assignment)
            freelist_.free(head.index());    // D14: free the old dummy node
            MSQ_COUNT(kDequeue);
            return true;                     // D13 break; D15 return TRUE
          }
          MSQ_COUNT(kCasFail);
          backoff.pause();
        }
      }
    }
  }

  /// Convenience wrapper with optional-return style.
  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  /// Items the pool can still hold (racy snapshot; tests/metrics only).
  [[nodiscard]] std::size_t unsafe_free_nodes() const noexcept {
    return freelist_.unsafe_size();
  }

  /// Bytes of one pool node (bench/fig_memory: peak_nodes x node_bytes).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return sizeof(Node);
  }

 private:
  struct Node {
    mem::ValueCell<T> value;
    Word next;
  };

  mem::NodePool<Node> pool_;
  Alloc<Node> freelist_;
  // Head and Tail on separate cache lines: dequeuers and enqueuers must not
  // false-share (the two-lock queue's design rationale applies here too).
  port::CacheAligned<Word> head_;
  port::CacheAligned<Word> tail_;
};

}  // namespace msq::queues
