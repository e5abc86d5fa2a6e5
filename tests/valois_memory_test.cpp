// The paper's Valois memory-exhaustion scenario (section 1), on the real
// (std::atomic) implementation:
//
//   "Problems occur if a process reads a pointer to a node (incrementing
//    the reference counter) and is then delayed.  While it is not running,
//    other processes can enqueue and dequeue an arbitrary number of
//    additional nodes.  Because of the pointer held by the delayed process,
//    neither the node referenced by that pointer nor any of its successors
//    can be freed.  It is therefore possible to run out of memory even if
//    the number of items in the queue is bounded by a constant."
//
// `bench/fig_memory --only valois` reproduces the quantitative version
// (64,000-node pool, <= 12-item queue); these tests prove the mechanism
// and the recovery.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "queues/ms_queue.hpp"
#include "queues/valois_queue.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {
namespace {

TEST(ValoisMemory, DelayedReaderExhaustsBoundedQueue) {
  // Pool of 64 nodes, queue occupancy never above 2 -- yet a single pinned
  // reference starves the allocator.
  ValoisQueue<std::uint64_t> queue(64);
  ASSERT_TRUE(queue.try_enqueue(0));

  // The "delayed process": SafeRead the dummy and just... hold it.
  const std::uint32_t pinned = queue.pool().safe_read(queue.head_cell()).index();
  ASSERT_NE(pinned, tagged::kNullIndex);

  std::uint64_t out = 0;
  std::uint64_t completed = 0;
  bool exhausted = false;
  for (std::uint64_t i = 1; i < 10'000; ++i) {
    if (!queue.try_enqueue(i)) {
      exhausted = true;
      break;
    }
    ASSERT_TRUE(queue.try_dequeue(out));
    ++completed;
  }
  EXPECT_TRUE(exhausted)
      << "a 64-node pool should starve with a pinned head after ~60 pairs";
  EXPECT_LT(completed, 70u);

  // The delayed process resumes: the whole pinned suffix cascades back and
  // the queue works again for thousands of operations.
  queue.pool().release(pinned);
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    ASSERT_TRUE(queue.try_enqueue(i)) << "pool did not recover at op " << i;
    ASSERT_TRUE(queue.try_dequeue(out));
  }
}

TEST(ValoisMemory, MsQueueIsImmuneToTheSameUsage) {
  // The MS queue under the identical bounded workload never exhausts: a
  // dequeued node is immediately reusable (that is the point of "dequeue
  // ensures that Tail does not point to the dequeued node").
  MsQueue<std::uint64_t> queue(64);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(queue.try_enqueue(i));
    ASSERT_TRUE(queue.try_dequeue(out));
    ASSERT_EQ(out, i);
  }
}

TEST(ValoisMemory, ConcurrentPinnedReaderStillSafe) {
  // While pinned, concurrent traffic must stay CORRECT (fail-stop on
  // allocation, no corruption), which is the paper's point: the scheme is
  // impractical, not unsafe.
  ValoisQueue<std::uint64_t> queue(128);
  ASSERT_TRUE(queue.try_enqueue(7));
  const std::uint32_t pinned = queue.pool().safe_read(queue.head_cell()).index();
  std::atomic<std::uint64_t> ok_pairs{0};
  std::atomic<std::uint64_t> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        std::uint64_t out = 0;
        for (std::uint64_t i = 0; i < 5'000; ++i) {
          if (queue.try_enqueue((std::uint64_t{static_cast<unsigned>(t)} << 40) | i)) {
            ok_pairs.fetch_add(queue.try_dequeue(out) ? 1 : 0,
                               std::memory_order_relaxed);
          } else {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_GT(failures.load(std::memory_order_acquire), 0u) << "expected allocation failures while pinned";
  queue.pool().release(pinned);
  // Recovery: drain and run clean pairs.
  std::uint64_t out = 0;
  while (queue.try_dequeue(out)) {
  }
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(queue.try_enqueue(i));
    ASSERT_TRUE(queue.try_dequeue(out));
  }
}

}  // namespace
}  // namespace msq::queues
