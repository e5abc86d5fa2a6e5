// Tests for the Lamport wait-free SPSC ring (paper section 1, ref [9]).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>

#include "queues/spsc_ring.hpp"

namespace msq::queues {
namespace {

TEST(SpscRing, EmptyAndSingleItem) {
  SpscRing<std::uint64_t> ring(4);
  std::uint64_t out = 0;
  EXPECT_FALSE(ring.try_dequeue(out));
  EXPECT_TRUE(ring.try_enqueue(5));
  ASSERT_TRUE(ring.try_dequeue(out));
  EXPECT_EQ(out, 5u);
  EXPECT_FALSE(ring.try_dequeue(out));
}

TEST(SpscRing, FillsToExactCapacity) {
  SpscRing<std::uint64_t> ring(3);
  EXPECT_TRUE(ring.try_enqueue(1));
  EXPECT_TRUE(ring.try_enqueue(2));
  EXPECT_TRUE(ring.try_enqueue(3));
  EXPECT_FALSE(ring.try_enqueue(4)) << "accepted beyond capacity";
  std::uint64_t out = 0;
  ASSERT_TRUE(ring.try_dequeue(out));
  EXPECT_EQ(out, 1u);
  EXPECT_TRUE(ring.try_enqueue(4));  // slot freed
}

TEST(SpscRing, WrapAroundPreservesFifo) {
  SpscRing<std::uint64_t> ring(3);
  std::uint64_t next_in = 0, next_out = 0, out = 0;
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(ring.try_enqueue(next_in++));
    ASSERT_TRUE(ring.try_enqueue(next_in++));
    ASSERT_TRUE(ring.try_dequeue(out));
    EXPECT_EQ(out, next_out++);
    ASSERT_TRUE(ring.try_dequeue(out));
    EXPECT_EQ(out, next_out++);
  }
}

TEST(SpscRing, ProducerConsumerStreamIsLossless) {
  SpscRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kItems = 500'000;
  std::uint64_t sum = 0;
  {
    // The RING is wait-free; the TEST must still yield in case its partner
    // is preempted (threads > cores), or each 16-item burst costs a whole
    // scheduling quantum.
    std::jthread consumer([&] {
      std::uint64_t received = 0;
      std::uint64_t expect = 0;
      while (received < kItems) {
        std::uint64_t out = 0;
        if (ring.try_dequeue(out)) {
          ASSERT_EQ(out, expect) << "SPSC order broken";
          ++expect;
          sum += out;
          ++received;
        } else {
          std::this_thread::yield();
        }
      }
    });
    std::jthread producer([&] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        while (!ring.try_enqueue(i)) {
          std::this_thread::yield();
        }
      }
    });
  }
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

TEST(SpscRing, TraitsDeclareWaitFreeSpsc) {
  EXPECT_EQ(SpscRing<int>::traits.progress, Progress::kWaitFree);
  EXPECT_FALSE(SpscRing<int>::traits.mpmc);
}

TEST(SpscRing, MovableOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_enqueue(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_dequeue(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

}  // namespace
}  // namespace msq::queues
