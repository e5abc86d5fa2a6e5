// The non-blocking queue of Prakash, Lee & Johnson [14,16] -- the paper's
// "best of the known non-blocking alternatives" baseline.
//
// Characteristic structure (paper section 1): operations "take a snapshot
// of the queue in order to determine its 'state' prior to updating it", and
// the algorithm "achieves the non-blocking property by allowing faster
// processes to complete the operations of slower processes instead of
// waiting for them" (helping: any process may swing a lagging Tail).
//
// Reconstruction note.  TR 600 does not reproduce PLJ's pseudo-code, and the
// published algorithm's delicate empty/single-item handling (it has no dummy
// node) is orthogonal to what the evaluation measures.  We therefore keep
// the dummy-node list representation but implement PLJ's *protocol*: every
// operation first acquires a validated snapshot of BOTH shared pointers and
// the successor cell -- re-reading until the triple is mutually consistent --
// and only then attempts its CAS, helping lagging tails it observed.  This
// reproduces exactly the overhead the paper attributes to PLJ relative to
// the MS queue: "sequences of reads that re-check earlier values ... similar
// to, but simpler than, the snapshots of Prakash et al. (we need to check
// only ONE shared variable rather than TWO)."  See DESIGN.md section 2.
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
class PljQueue {
  using Link = tagged::ValueOf<Word>;

 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  explicit PljQueue(std::uint32_t capacity)
      : pool_(capacity + 1), freelist_(pool_) {
    const std::uint32_t dummy = freelist_.try_allocate();
    pool_[dummy].next.store(Link{}, std::memory_order_release);
    head_.value.store(Link(dummy, 0), std::memory_order_release);
    tail_.value.store(Link(dummy, 0), std::memory_order_release);
  }

  PljQueue(const PljQueue&) = delete;
  PljQueue& operator=(const PljQueue&) = delete;

  bool try_enqueue(T value) noexcept {
    const std::uint32_t node = freelist_.try_allocate();
    if (node == tagged::kNullIndex) return false;
    pool_[node].value.put(value, "plj.value_write");
    // The null link is COUNTED, as in MsQueue's E3: bumping the node's own
    // count keeps it monotone across recycles.  A reset to 0 lets a stale
    // link CAS -- one whose snapshot saw this node as Tail in an earlier
    // life -- land on it while its new enqueuer has not linked it yet; the
    // stale item then trails a node outside the queue and is overtaken.
    const Link stale =
        pool_[node].next.load(std::memory_order_acquire, "plj.next_count");
    pool_[node].next.store(Link(tagged::kNullIndex, stale.count() + 1),
                           std::memory_order_release, "plj.next_init");

    BackoffPolicy backoff;
    for (;;) {
      const Snapshot snap = take_snapshot();
      if (!snap.tail_next.is_null()) {
        // The snapshot exposed a lagging Tail: complete the slower
        // process's operation (helping), then retry.
        tail_.value.compare_and_swap(
            snap.tail, snap.tail.successor(snap.tail_next.index()),
            std::memory_order_acq_rel, "plj.enq_tail_help");
        continue;
      }
      MSQ_PROBE("plj.link");  // holding a snapshot of Tail and Tail->next
      MSQ_COUNT(kCasAttempt);
      if (pool_[snap.tail.index()].next.compare_and_swap(
              snap.tail_next, snap.tail_next.successor(node),
              std::memory_order_acq_rel, "plj.link_cas")) {
        tail_.value.compare_and_swap(snap.tail, snap.tail.successor(node),
                                     std::memory_order_acq_rel,
                                     "plj.tail_swing");
        MSQ_COUNT(kEnqueue);
        return true;
      }
      MSQ_COUNT(kCasFail);
      backoff.pause();
    }
  }

  bool try_dequeue(T& out) noexcept {
    BackoffPolicy backoff;
    for (;;) {
      const Snapshot snap = take_snapshot();
      const Link first = pool_[snap.head.index()].next.load(
          std::memory_order_acquire, "plj.first_load");
      if (snap.head != head_.value.load(std::memory_order_acquire,
                                        "plj.head_check")) {
        continue;  // snapshot went stale
      }
      if (snap.head.index() == snap.tail.index()) {
        if (first.is_null()) {
          MSQ_COUNT(kDequeueEmpty);
          return false;  // state: empty
        }
        // State: tail lagging on a non-empty queue; help before touching
        // Head, so Tail can never point at a dequeued node.
        tail_.value.compare_and_swap(snap.tail,
                                     snap.tail.successor(first.index()),
                                     std::memory_order_acq_rel,
                                     "plj.deq_tail_help");
        continue;
      }
      if (first.is_null()) continue;  // stale triple; cannot happen if the
                                      // snapshot invariants hold, but cheap
      const T value = pool_[first.index()].value.get("plj.value_read");
      MSQ_COUNT(kCasAttempt);
      if (head_.value.compare_and_swap(snap.head,
                                       snap.head.successor(first.index()),
                                       std::memory_order_acq_rel,
                                       "plj.head_cas")) {
        out = value;
        freelist_.free(snap.head.index());
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

  struct Snapshot {
    Link head;
    Link tail;
    Link tail_next;
  };

  /// PLJ's distinguishing step: a validated snapshot of Head, Tail and
  /// Tail->next -- two shared variables re-checked (vs. the MS queue's one).
  [[nodiscard]] Snapshot take_snapshot() const noexcept {
    for (;;) {
      const Link head =
          head_.value.load(std::memory_order_acquire, "plj.snap_head");
      const Link tail =
          tail_.value.load(std::memory_order_acquire, "plj.snap_tail");
      const Link tail_next = pool_[tail.index()].next.load(
          std::memory_order_acquire, "plj.snap_next");
      if (head == head_.value.load(std::memory_order_acquire,
                                   "plj.snap_head_check") &&
          tail == tail_.value.load(std::memory_order_acquire,
                                   "plj.snap_tail_check")) {
        return Snapshot{head, tail, tail_next};
      }
      port::cpu_relax();
    }
  }

  mem::NodePool<Node> pool_;
  mem::FreeList<Node> freelist_;
  port::CacheAligned<Word> head_;
  port::CacheAligned<Word> tail_;
};

}  // namespace msq::queues
