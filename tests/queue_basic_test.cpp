// Single-threaded contract tests, typed over every MPMC queue in the
// library: FIFO order, emptiness reporting, capacity behaviour, dummy-node
// edge cases (empty <-> single-item transitions -- the cases the paper says
// earlier algorithms got wrong or omitted).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "mem/magazine.hpp"
#include "queues/queues.hpp"

namespace msq::queues {
namespace {

constexpr std::uint32_t kCapacity = 64;

// Uniform construction across pool-backed and unbounded queues.
template <typename Q>
struct Factory {
  static Q make() { return Q(kCapacity); }
};
template <typename T, typename B>
struct Factory<MsQueueHp<T, B>> {
  static MsQueueHp<T, B> make() { return MsQueueHp<T, B>(); }
};

template <typename Q>
class QueueBasicTest : public ::testing::Test {
 protected:
  decltype(Factory<Q>::make()) queue_ = Factory<Q>::make();
};

// Figure 1 on the 128-bit cmpxchg16b counted word.
using MsQueueWide = MsQueue<std::uint64_t, sync::Backoff, mem::FreeList,
                            tagged::AtomicTagged128>;
// Figure 1 allocating through per-thread magazines over the free list (the
// `msq+mag` series of bench/ablate_magazine.cpp).
template <typename Node>
using Mag32 = mem::MagazineAllocator<Node, 32>;
using MsQueueMag = MsQueue<std::uint64_t, sync::Backoff, Mag32>;

using QueueTypes =
    ::testing::Types<MsQueue<std::uint64_t>, MsQueueWide, MsQueueMag,
                     MsQueueHp<std::uint64_t>, TwoLockQueue<std::uint64_t>,
                     SingleLockQueue<std::uint64_t>,
                     MellorCrummeyQueue<std::uint64_t>, RingQueue<std::uint64_t>,
                     ScqQueue<std::uint64_t>, PljQueue<std::uint64_t>,
                     ValoisQueue<std::uint64_t>, SegmentQueue<std::uint64_t>,
                     // Degenerate single shard: globally FIFO, so it owes
                     // the same single-threaded contract as its inner queue.
                     ShardedQueue<MsQueue<std::uint64_t>, 1>>;
TYPED_TEST_SUITE(QueueBasicTest, QueueTypes);

TYPED_TEST(QueueBasicTest, SatisfiesConcurrentQueueConcept) {
  static_assert(ConcurrentQueue<TypeParam>);
  SUCCEED();
}

TYPED_TEST(QueueBasicTest, NewQueueIsEmpty) {
  std::uint64_t out = 0;
  EXPECT_FALSE(this->queue_.try_dequeue(out));
}

TYPED_TEST(QueueBasicTest, SingleItemRoundTrip) {
  ASSERT_TRUE(this->queue_.try_enqueue(42));
  std::uint64_t out = 0;
  ASSERT_TRUE(this->queue_.try_dequeue(out));
  EXPECT_EQ(out, 42u);
  EXPECT_FALSE(this->queue_.try_dequeue(out)) << "queue must be empty again";
}

TYPED_TEST(QueueBasicTest, FifoOrderPreserved) {
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(this->queue_.try_enqueue(i));
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    std::uint64_t out = 0;
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, i);
  }
}

TYPED_TEST(QueueBasicTest, OptionalDequeueForm) {
  EXPECT_EQ(this->queue_.try_dequeue(), std::nullopt);
  ASSERT_TRUE(this->queue_.try_enqueue(7));
  const std::optional<std::uint64_t> got = this->queue_.try_dequeue();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7u);
}

TYPED_TEST(QueueBasicTest, EmptyToNonEmptyTransitionRepeats) {
  // Exercises the dummy-node special case over and over: the "empty or
  // single-item queue" handling that incompletely-specified predecessors
  // omitted (paper section 1).
  for (std::uint64_t round = 0; round < 1000; ++round) {
    std::uint64_t out = 0;
    EXPECT_FALSE(this->queue_.try_dequeue(out));
    ASSERT_TRUE(this->queue_.try_enqueue(round));
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, round);
  }
}

TYPED_TEST(QueueBasicTest, InterleavedEnqueueDequeue) {
  // Occupancy grows by one per round; 40 rounds stays within the 64-node
  // pool of the bounded queues.
  std::uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(this->queue_.try_enqueue(next_in++));
    for (int i = 0; i < 2; ++i) {
      std::uint64_t out = 0;
      ASSERT_TRUE(this->queue_.try_dequeue(out));
      EXPECT_EQ(out, next_out++);
    }
  }
  // Drain the surplus.
  std::uint64_t out = 0;
  while (this->queue_.try_dequeue(out)) {
    EXPECT_EQ(out, next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TYPED_TEST(QueueBasicTest, CapacityBoundIsHonoured) {
  if constexpr (TypeParam::traits.pool_backed) {
    std::uint64_t enqueued = 0;
    while (this->queue_.try_enqueue(enqueued)) {
      ++enqueued;
      ASSERT_LE(enqueued, static_cast<std::uint64_t>(kCapacity) + 1)
          << "queue accepted more items than its pool holds";
    }
    EXPECT_GE(enqueued, kCapacity - 1) << "queue refused well below capacity";
    // Free one slot; enqueue must succeed again.
    std::uint64_t out = 0;
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(this->queue_.try_enqueue(enqueued));
  } else {
    // Unbounded (hazard-pointer) variant: accepts far beyond kCapacity.
    for (std::uint64_t i = 0; i < kCapacity * 4; ++i) {
      ASSERT_TRUE(this->queue_.try_enqueue(i));
    }
    std::uint64_t out = 0;
    for (std::uint64_t i = 0; i < kCapacity * 4; ++i) {
      ASSERT_TRUE(this->queue_.try_dequeue(out));
      EXPECT_EQ(out, i);
    }
  }
}

TYPED_TEST(QueueBasicTest, DrainAfterPartialConsumption) {
  for (std::uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(this->queue_.try_enqueue(i));
  std::uint64_t out = 0;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(this->queue_.try_dequeue(out));
  for (std::uint64_t i = 10; i < 15; ++i) ASSERT_TRUE(this->queue_.try_enqueue(i));
  for (std::uint64_t expect = 5; expect < 15; ++expect) {
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, expect);
  }
  EXPECT_FALSE(this->queue_.try_dequeue(out));
}

TEST(QueueTraits, ProgressClassificationMatchesPaper) {
  // Section 1's taxonomy, encoded as traits the harness relies on.
  EXPECT_EQ(MsQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(MsQueueHp<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(PljQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(ValoisQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(SegmentQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(TwoLockQueue<int>::traits.progress, Progress::kBlocking);
  EXPECT_EQ(SingleLockQueue<int>::traits.progress, Progress::kBlocking);
  EXPECT_EQ(MellorCrummeyQueue<int>::traits.progress,
            Progress::kLockFreeBlocking);
  EXPECT_EQ(RingQueue<int>::traits.progress, Progress::kLockFreeBlocking);
  // SCQ is bounded like the ring but genuinely non-blocking: a dequeuer
  // overtaking a stalled enqueuer marks the entry unsafe and moves on
  // instead of waiting on the slot handshake.
  EXPECT_EQ(ScqQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_FALSE(MsQueueHp<int>::traits.pool_backed);
  EXPECT_TRUE(MsQueue<int>::traits.pool_backed);
}

}  // namespace
}  // namespace msq::queues
