// Straightforward single-lock queue -- the baseline of the paper's
// evaluation ("a straightforward single-lock queue ... For a queue that is
// usually accessed by only one or two processors, a single lock will run a
// little faster").
//
// One test-and-test_and_set lock (with bounded exponential backoff, as in
// the paper) protects the whole structure; with both ends serialised, the
// plain (non-atomic) free list can live under the same lock.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "mem/node_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "sync/tatas_lock.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {

/// `Word` selects the cell of every lock-guarded field (mem::GuardedOf):
/// plain fields in production, the simulator's words under sim/shipped.hpp.
/// Each access passes its site name.
template <typename T, typename Lock = sync::TatasLock,
          typename Word = tagged::AtomicTagged>
class SingleLockQueue {
 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  explicit SingleLockQueue(std::uint32_t capacity) : pool_(capacity + 1) {
    // Private free list: singly linked through `next` indices.
    free_top_.put(tagged::kNullIndex);
    for (std::uint32_t i = 0; i < pool_.capacity(); ++i) {
      pool_[i].next.put(free_top_.get());
      free_top_.put(i);
    }
    const std::uint32_t dummy = allocate();
    pool_[dummy].next.put(tagged::kNullIndex);
    head_.put(dummy);
    tail_.put(dummy);
  }

  SingleLockQueue(const SingleLockQueue&) = delete;
  SingleLockQueue& operator=(const SingleLockQueue&) = delete;

  bool try_enqueue(T value) {
    std::scoped_lock guard(lock_.value);
    MSQ_PROBE("singlelock.held");  // halted here: the whole queue wedges
    const std::uint32_t node = allocate();
    if (node == tagged::kNullIndex) return false;
    pool_[node].value.put(std::move(value), "singlelock.enq_value_write");
    pool_[node].next.put(tagged::kNullIndex, "singlelock.enq_next_init");
    pool_[tail_.get("singlelock.enq_tail_read")].next.put(
        node, "singlelock.enq_link_write");
    tail_.put(node, "singlelock.enq_tail_write");
    MSQ_COUNT(kEnqueue);
    return true;
  }

  bool try_dequeue(T& out) {
    std::scoped_lock guard(lock_.value);
    MSQ_PROBE("singlelock.held");
    const std::uint32_t dummy = head_.get("singlelock.deq_head_read");
    const std::uint32_t first =
        pool_[dummy].next.get("singlelock.deq_next_read");
    if (first == tagged::kNullIndex) {
      MSQ_COUNT(kDequeueEmpty);
      return false;
    }
    pool_[first].value.move_to(out, "singlelock.deq_value_read");
    head_.put(first, "singlelock.deq_head_write");
    release(dummy);
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
  [[nodiscard]] std::uint32_t unsafe_head() const { return head_.get(); }
  [[nodiscard]] std::uint32_t unsafe_tail() const { return tail_.get(); }
  [[nodiscard]] std::uint32_t unsafe_next(std::uint32_t index) const {
    return pool_[index].next.get();
  }

 private:
  struct Node {
    mem::GuardedOf<T, Word> value;
    mem::GuardedOf<std::uint32_t, Word> next;
  };

  std::uint32_t allocate() {
    const std::uint32_t node = free_top_.get("singlelock.alloc_top_read");
    if (node == tagged::kNullIndex) {
      MSQ_COUNT(kPoolRefuse);
      return tagged::kNullIndex;
    }
    free_top_.put(pool_[node].next.get("singlelock.alloc_next_read"),
                  "singlelock.alloc_top_write");
    MSQ_COUNT(kPoolGet);
    return node;
  }
  void release(std::uint32_t node) {
    pool_[node].next.put(free_top_.get("singlelock.free_top_read"),
                         "singlelock.free_link_write");
    free_top_.put(node, "singlelock.free_top_write");
  }

  mem::NodePool<Node> pool_;
  // All guarded by lock_.
  mem::GuardedOf<std::uint32_t, Word> free_top_;
  mem::GuardedOf<std::uint32_t, Word> head_;
  mem::GuardedOf<std::uint32_t, Word> tail_;
  port::CacheAligned<Lock> lock_;
};

}  // namespace msq::queues
