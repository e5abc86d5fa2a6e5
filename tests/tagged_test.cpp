// Unit tests for the counted-pointer substrate (tagged/).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "tagged/atomic_tagged.hpp"
#include "tagged/atomic_tagged128.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::tagged {
namespace {

TEST(TaggedIndex, DefaultIsNullWithZeroCount) {
  const TaggedIndex t;
  EXPECT_TRUE(t.is_null());
  EXPECT_EQ(t.index(), kNullIndex);
  EXPECT_EQ(t.count(), 0u);
}

TEST(TaggedIndex, PacksIndexAndCount) {
  const TaggedIndex t(42, 7);
  EXPECT_EQ(t.index(), 42u);
  EXPECT_EQ(t.count(), 7u);
  EXPECT_FALSE(t.is_null());
}

TEST(TaggedIndex, SuccessorBumpsCounterAndRetargets) {
  const TaggedIndex t(5, 100);
  const TaggedIndex s = t.successor(9);
  EXPECT_EQ(s.index(), 9u);
  EXPECT_EQ(s.count(), 101u);
}

TEST(TaggedIndex, CounterWrapsAround) {
  const TaggedIndex t(1, 0xFFFFFFFFu);
  EXPECT_EQ(t.successor(1).count(), 0u);  // modular, like the paper's counter
}

TEST(TaggedIndex, EqualityIncludesCount) {
  EXPECT_EQ(TaggedIndex(3, 4), TaggedIndex(3, 4));
  EXPECT_NE(TaggedIndex(3, 4), TaggedIndex(3, 5));  // same node, later time
  EXPECT_NE(TaggedIndex(3, 4), TaggedIndex(2, 4));
}

TEST(TaggedIndex, BitsRoundTrip) {
  const TaggedIndex t(123456, 654321);
  EXPECT_EQ(TaggedIndex::from_bits(t.bits()), t);
}

TEST(AtomicTagged, LoadStoreRoundTrip) {
  AtomicTagged cell;
  EXPECT_TRUE(cell.load(std::memory_order_acquire).is_null());
  cell.store(TaggedIndex(8, 2), std::memory_order_release);
  EXPECT_EQ(cell.load(std::memory_order_acquire), TaggedIndex(8, 2));
}

TEST(AtomicTagged, CasSucceedsOnExactMatch) {
  AtomicTagged cell{TaggedIndex(1, 1)};
  EXPECT_TRUE(cell.compare_and_swap(TaggedIndex(1, 1), TaggedIndex(2, 2), std::memory_order_acq_rel));
  EXPECT_EQ(cell.load(std::memory_order_acquire), TaggedIndex(2, 2));
}

TEST(AtomicTagged, CasFailsOnStaleCount) {
  // The ABA defence: same index, older count, must fail.
  AtomicTagged cell{TaggedIndex(1, 5)};
  EXPECT_FALSE(cell.compare_and_swap(TaggedIndex(1, 4), TaggedIndex(2, 6), std::memory_order_acq_rel));
  EXPECT_EQ(cell.load(std::memory_order_acquire), TaggedIndex(1, 5));
}

TEST(AtomicTagged, ConcurrentCasGrantsExactlyOneWinnerPerValue) {
  AtomicTagged cell{TaggedIndex(0, 0)};
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20'000;
  std::vector<std::jthread> threads;
  std::atomic<std::uint64_t> wins{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          const TaggedIndex cur = cell.load(std::memory_order_acquire);
          if (cell.compare_and_swap(cur, cur.successor(cur.index() + 1), std::memory_order_acq_rel)) {
            wins.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  threads.clear();
  EXPECT_EQ(wins.load(std::memory_order_acquire), kThreads * kIncrements);
  // Every successful CAS bumped the counter exactly once.
  EXPECT_EQ(cell.load(std::memory_order_acquire).count(), static_cast<std::uint32_t>(kThreads * kIncrements));
  EXPECT_EQ(cell.load(std::memory_order_acquire).index(), static_cast<std::uint32_t>(kThreads * kIncrements));
}

TEST(TaggedIndex128, DefaultIsNullWithZeroCount) {
  const TaggedIndex128 t;
  EXPECT_TRUE(t.is_null());
  EXPECT_EQ(t.index(), kNullIndex);
  EXPECT_EQ(t.count(), 0u);
}

TEST(TaggedIndex128, SuccessorBumpsCountPastThirtyTwoBits) {
  const TaggedIndex128 t(3, 0xFFFF'FFFFull);
  const TaggedIndex128 s = t.successor(kNullIndex);
  EXPECT_TRUE(s.is_null());
  EXPECT_EQ(s.count(), 0x1'0000'0000ull);  // the 64-bit word does not wrap here
}

TEST(AtomicTagged128, LoadStoreRoundTrip) {
  AtomicTagged128 cell;
  EXPECT_TRUE(cell.load(std::memory_order_acquire).is_null());
  cell.store({7, 3}, std::memory_order_release);
  EXPECT_EQ(cell.load(std::memory_order_acquire).index(), 7u);
  EXPECT_EQ(cell.load(std::memory_order_acquire).count(), 3u);
}

TEST(AtomicTagged128, CasIsCountSensitive) {
  AtomicTagged128 cell{{0, 10}};
  EXPECT_FALSE(cell.compare_and_swap({0, 9}, {1, 10}, std::memory_order_acq_rel));   // stale count
  EXPECT_TRUE(cell.compare_and_swap({0, 10}, {1, 11}, std::memory_order_acq_rel));
  EXPECT_EQ(cell.load(std::memory_order_acquire).index(), 1u);
}

TEST(AtomicTagged128, ConcurrentCountMonotonicity) {
  AtomicTagged128 cell{{kNullIndex, 0}};
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10'000;
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          const TaggedIndex128 cur = cell.load(std::memory_order_acquire);
          if (cell.compare_and_swap(cur, cur.successor(cur.index()), std::memory_order_acq_rel)) break;
        }
      }
    });
  }
  threads.clear();
  EXPECT_EQ(cell.load(std::memory_order_acquire).count(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

}  // namespace
}  // namespace msq::tagged
