// Pool-exhaustion backpressure at the queue API, typed over every
// pool-backed queue: when the free list runs dry (mem/*_pool returns
// kNullIndex), try_enqueue must surface a clean `false` -- never an assert,
// never a half-linked node -- and the failed attempt must not leak the
// node it failed to place.  The leak proof is cyclic: fill-to-refusal,
// drain-to-empty, repeated; a single leaked node per cycle would shrink the
// observed capacity monotonically, so "every cycle fills to exactly the
// same count" pins the no-leak property without reaching into pool
// internals.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mem/magazine.hpp"
#include "mem/node_pool.hpp"
#include "obs/counters.hpp"
#include "queues/queues.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {
namespace {

constexpr std::uint32_t kCapacity = 48;
constexpr int kCycles = 5;

template <typename Q>
class PoolExhaustionTest : public ::testing::Test {
 protected:
  Q queue_{kCapacity};
};

// Figure 1 on the 128-bit cmpxchg16b counted word.
using MsQueueWide = MsQueue<std::uint64_t, sync::Backoff, mem::FreeList,
                            tagged::AtomicTagged128>;
// Figure 1 allocating through per-thread magazines over the free list (the
// `msq+mag` series of bench/ablate_magazine.cpp).
template <typename Node>
using Mag32 = mem::MagazineAllocator<Node, 32>;
using MsQueueMag = MsQueue<std::uint64_t, sync::Backoff, Mag32>;

using PoolBackedTypes =
    ::testing::Types<MsQueue<std::uint64_t>, MsQueueWide, MsQueueMag,
                     TwoLockQueue<std::uint64_t>, SingleLockQueue<std::uint64_t>,
                     MellorCrummeyQueue<std::uint64_t>, RingQueue<std::uint64_t>,
                     ScqQueue<std::uint64_t>,
                     PljQueue<std::uint64_t>, ValoisQueue<std::uint64_t>,
                     SegmentQueue<std::uint64_t>,
                     // Sequential fill-to-refusal stays globally FIFO even
                     // multi-shard: the single producer fills its home shard
                     // to refusal before spilling onward in order, and the
                     // drain sweeps shards in the same order.
                     ShardedQueue<SegmentQueue<std::uint64_t>, 2>>;
TYPED_TEST_SUITE(PoolExhaustionTest, PoolBackedTypes);

TYPED_TEST(PoolExhaustionTest, RefusalIsCleanAndRepeatable) {
  static_assert(TypeParam::traits.pool_backed);
  obs::arm();
  const auto counters_before = obs::snapshot();
  // Fill to refusal once, then hammer the refused path: every further
  // attempt must return false (not assert, not succeed spuriously).
  std::uint64_t filled = 0;
  while (this->queue_.try_enqueue(filled)) ++filled;
  ASSERT_GT(filled, 0u);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_FALSE(this->queue_.try_enqueue(0xdead));
  }
  // Exactly what went in comes out, in order; the refused values never
  // materialise.
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < filled; ++i) {
    ASSERT_TRUE(this->queue_.try_dequeue(out)) << "lost item " << i;
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(this->queue_.try_dequeue(out));
  obs::disarm();
#if MSQ_OBS
  // Probe audit: successes and refusals must both be counted, exactly for
  // the op counters, at-least-once per refusal for the pool (the magazine
  // fallback can refuse more than once per failed enqueue).
  const auto delta = obs::snapshot() - counters_before;
  EXPECT_EQ(delta[obs::Counter::kEnqueue], filled);
  EXPECT_EQ(delta[obs::Counter::kDequeue], filled);
  EXPECT_GE(delta[obs::Counter::kPoolRefuse], 1'001u);  // 1000 + fill's stop
  EXPECT_GE(delta[obs::Counter::kDequeueEmpty], 1u);
#else
  (void)counters_before;
#endif
}

TYPED_TEST(PoolExhaustionTest, FillDrainCyclesShowNoNodeLeak) {
  std::vector<std::uint64_t> fill_counts;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::uint64_t filled = 0;
    while (this->queue_.try_enqueue(filled)) ++filled;
    // A few extra refusals per cycle: the failure path itself must not
    // consume nodes either.
    for (int i = 0; i < 10; ++i) {
      EXPECT_FALSE(this->queue_.try_enqueue(0xbeef));
    }
    std::uint64_t drained = 0, out = 0;
    while (this->queue_.try_dequeue(out)) ++drained;
    EXPECT_EQ(drained, filled) << "cycle " << cycle << " lost nodes in flight";
    fill_counts.push_back(filled);
  }
  // Capacity observed by cycle 0 must persist: any leak -- in the refused
  // enqueue, the drain, or reclamation (Valois's cascade, MS's free-list
  // recycling) -- would make later cycles fill to fewer items.
  for (int cycle = 1; cycle < kCycles; ++cycle) {
    EXPECT_EQ(fill_counts[cycle], fill_counts[0])
        << "capacity decayed by cycle " << cycle;
  }
  EXPECT_GT(fill_counts[0], 0u);
}

// ---- magazine allocator exhaustion semantics --------------------------
//
// The contract under test (src/mem/magazine.hpp): try_allocate may only
// refuse when pool capacity is truly exhausted -- nodes cached in OTHER
// threads' magazines must be flushed back (the exhaustion sweep) rather
// than silently shrinking the observable pool.

namespace {
struct MagNode {
  tagged::AtomicTagged next;
};
}  // namespace

TEST(MagazineExhaustion, SweepMakesOtherThreadsCachedNodesVisible) {
  constexpr std::uint32_t kNodes = 16;
  mem::NodePool<MagNode> pool(kNodes);
  mem::MagazineAllocator<MagNode, 8> mag(pool);

  // Drain the whole pool from this thread.
  obs::arm();
  const auto counters_before = obs::snapshot();
  std::vector<std::uint32_t> held;
  for (std::uint32_t idx = mag.try_allocate(); idx != tagged::kNullIndex;
       idx = mag.try_allocate()) {
    held.push_back(idx);
  }
  ASSERT_EQ(held.size(), kNodes);
  obs::disarm();
#if MSQ_OBS
  // Single-threaded, the slot is always claimable, so every successful
  // allocation is a magazine hit or the served-immediately head of a
  // refill batch: mag_hit + mag_refill == acquires, exactly, and each
  // batch pops kCap/2 = 4 indices -> 16/4 refills.
  const auto delta = obs::snapshot() - counters_before;
  EXPECT_EQ(delta[obs::Counter::kMagHit] + delta[obs::Counter::kMagRefill],
            kNodes);
  EXPECT_EQ(delta[obs::Counter::kMagRefill], kNodes / 4);
  EXPECT_GE(delta[obs::Counter::kPoolRefuse], 1u);  // the stopping refusal
#else
  (void)counters_before;
#endif

  // Free half of it from a different thread: those indices land in that
  // thread's magazine (a different slot than ours, in the common case),
  // NOT in the shared free list.
  std::thread([&] {
    for (std::uint32_t i = 0; i < kNodes / 2; ++i) mag.free(held[i]);
  }).join();
  EXPECT_EQ(mag.unsafe_size(), kNodes / 2)
      << "freed nodes must be visible to the racy aggregate count";

  // This thread must recover every one of them: an allocation that cannot
  // be served locally or from the shared list sweeps the other magazines.
  std::uint32_t recovered = 0;
  for (std::uint32_t idx = mag.try_allocate(); idx != tagged::kNullIndex;
       idx = mag.try_allocate()) {
    ++recovered;
  }
  EXPECT_EQ(recovered, kNodes / 2)
      << "nodes cached in another thread's magazine were lost to exhaustion";
}

TEST(MagazineExhaustion, FlushAllReturnsEverythingToTheSharedList) {
  constexpr std::uint32_t kNodes = 24;
  mem::NodePool<MagNode> pool(kNodes);
  mem::MagazineAllocator<MagNode, 8> mag(pool);

  obs::arm();
  const auto counters_before = obs::snapshot();
  std::vector<std::uint32_t> held;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const std::uint32_t idx = mag.try_allocate();
    ASSERT_NE(idx, tagged::kNullIndex);
    held.push_back(idx);
  }
  for (const std::uint32_t idx : held) mag.free(idx);
  mag.flush_all();
  EXPECT_EQ(mag.shared().unsafe_size(), kNodes)
      << "flush_all must leave no node cached in any magazine";
  obs::disarm();
#if MSQ_OBS
  // mag_hit + mag_refill == acquires (see SweepMakes... for why exact);
  // the 24 frees overflow the 8-slot magazine, so at least one batch went
  // back mid-stream, plus the terminal flush_all.
  const auto delta = obs::snapshot() - counters_before;
  EXPECT_EQ(delta[obs::Counter::kMagHit] + delta[obs::Counter::kMagRefill],
            kNodes);
  EXPECT_GE(delta[obs::Counter::kMagFlush], 2u);
#else
  (void)counters_before;
#endif
}

TEST(TreiberExhaustion, TryPushRefusesCleanlyAndCyclesWithoutLeak) {
  TreiberStack<std::uint64_t> stack(kCapacity);
  std::vector<std::uint64_t> fill_counts;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::uint64_t filled = 0;
    while (stack.try_push(filled)) ++filled;
    for (int i = 0; i < 10; ++i) EXPECT_FALSE(stack.try_push(0xdead));
    std::uint64_t out = 0, popped = 0;
    while (stack.try_pop(out)) {
      // LIFO: values come back in reverse, and never a refused one.
      EXPECT_EQ(out, filled - 1 - popped);
      ++popped;
    }
    EXPECT_EQ(popped, filled);
    fill_counts.push_back(filled);
  }
  for (int cycle = 1; cycle < kCycles; ++cycle) {
    EXPECT_EQ(fill_counts[cycle], fill_counts[0]);
  }
  EXPECT_GT(fill_counts[0], 0u);
}

// ---- stranded-limbo exhaustion (segment queue) ------------------------
//
// Regression for a wedge the sharded front end's tiny per-shard pools made
// near-certain: retire() parks a hazarded segment in limbo, and limbo was
// only re-scanned by a LATER retire.  Once the pool ran dry with a
// since-released segment still parked there, no enqueue could append a
// fresh segment, so no dequeue could ever retire again -- permanent
// try_enqueue refusal on a queue whose capacity was nominally free.
// try_enqueue now sweeps limbo before refusing; this choreography uses a
// FaultPlan halt to strand a segment deterministically and pins the sweep.

TEST(SegmentExhaustion, EnqueueSweepsLimboBeforeRefusing) {
  using Seg = SegmentQueue<std::uint64_t>;
  // Capacity 1 -> two segments total: the drained anchor plus ONE
  // allocatable segment (kSlots items).  The smallest pool that can
  // strand -- and exactly what a sharded front end hands each shard.
  Seg queue(1);

  // Seed: appends S1 (the only free segment) with value 0 in slot 0.
  ASSERT_TRUE(queue.try_enqueue(0));
  ASSERT_EQ(queue.unsafe_free_segments(), 0u);

  fault::FaultPlan plan;
  plan.halt_at("segq.faa_deq");
  plan.arm();

  std::uint64_t victim_out = 0;
  std::atomic<bool> victim_ok{false};
  std::thread victim([&] {
    victim_ok.store(queue.try_dequeue(victim_out));
  });
  // The victim first swings Head off the drained anchor (recycling it to
  // the free list), then parks at S1's ticket FAA holding a hazard on S1.
  plan.wait_for_halted(1);
  plan.disarm();  // parked threads stay parked; our own probes pass
  ASSERT_EQ(queue.unsafe_free_segments(), 1u);

  // kSlots + 1 enqueue/dequeue pairs, single-threaded FIFO: the last
  // pair's enqueue has appended the recycled anchor (draining the pool)
  // and its dequeue has swung Head off the drained S1 and retired it INTO
  // LIMBO -- the victim's hazard is still up.
  constexpr std::uint64_t kPairs = Seg::kSlots + 1;
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    ASSERT_TRUE(queue.try_enqueue(100 + i));
    std::uint64_t out = 0;
    ASSERT_TRUE(queue.try_dequeue(out));
    EXPECT_EQ(out, i == 0 ? 0 : 100 + i - 1);
  }
  ASSERT_EQ(queue.unsafe_free_segments(), 0u);  // S1 is in limbo, not here

  // Resurrect the victim: its stale ticket overshoots drained S1, so it
  // re-reads Head and takes the one in-flight item, dropping the S1
  // hazard on exit.  From here S1 is reapable but still parked in limbo.
  plan.release_halted();
  victim.join();
  ASSERT_TRUE(victim_ok.load());
  EXPECT_EQ(victim_out, 100 + kPairs - 1);

  // Fill to refusal.  Without the exhaustion sweep in try_enqueue the
  // pool is dry and S1 stays stranded (nothing ever retires again), so
  // the fill wedges at the tail segment's leftover slots -- strictly
  // fewer than one full segment.  With the sweep, refusal only comes
  // after S1 has been reaped, recycled, and refilled too.
  std::uint64_t filled = 0;
  while (queue.try_enqueue(1'000 + filled)) ++filled;
  EXPECT_GE(filled, static_cast<std::uint64_t>(Seg::kSlots));

  // Drain-to-empty conservation: every fill that reported success comes
  // back out in order, including those placed in the reaped segment.
  std::uint64_t drained = 0;
  std::uint64_t out = 0;
  while (queue.try_dequeue(out)) {
    EXPECT_EQ(out, 1'000 + drained);
    ++drained;
  }
  EXPECT_EQ(drained, filled);
}

}  // namespace
}  // namespace msq::queues
