// Differential testing: every queue against a reference std::deque model.
//
//  * Sequential: long seeded-random op sequences must match the model op
//    for op (value AND emptiness reporting), across all queues and many
//    seeds (parameterised sweep).
//  * Concurrent phases: a parallel enqueue phase followed by a sequential
//    drain must yield exactly the model multiset, merged in a way
//    consistent with per-producer order (checked via interleaving merge).
// The ShardedQueue front end joins in two forms: the degenerate single
// shard (exactly as linearizable as its inner queue, so it rides the full
// deque-model sweep) and multi-shard configurations, which deliberately
// trade global FIFO for scalability and are therefore held to their own
// documented contract -- multiset conservation, exact sequential
// emptiness, and per-producer decomposition into at most N FIFO runs
// (tests/sharded_oracle.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "mem/magazine.hpp"
#include "port/prng.hpp"
#include "queues/queues.hpp"
#include "sharded_oracle.hpp"

namespace msq::queues {
namespace {

enum class Kind {
  kMs,
  kMsWide,  // Figure 1 on the 128-bit cmpxchg16b counted word
  kMsHp,
  kTwoLock,
  kSingleLock,
  kMc,
  kRing,
  kScq,  // bounded indirect SCQ ring (Nikolaev), memory-bounded lock-free
  kPlj,
  kValois,
  kSeg,
  kSharded1,  // ShardedQueue<MsQueue, 1>: degenerate, still global FIFO
  kMsMag,     // Figure 1 over per-thread magazines (bench/ablate_magazine)
};

constexpr Kind kAllKinds[] = {Kind::kMs,   Kind::kMsWide,     Kind::kMsHp,
                              Kind::kTwoLock, Kind::kSingleLock, Kind::kMc,
                              Kind::kRing, Kind::kScq,       Kind::kPlj,
                              Kind::kValois, Kind::kSeg,     Kind::kSharded1,
                              Kind::kMsMag};

template <typename Node>
using Mag32 = mem::MagazineAllocator<Node, 32>;

/// Type-erased adapter so the sweep can be a value-parameterised test
/// (kind x seed) rather than 8 copies of the same code.
class AnyQueue {
 public:
  AnyQueue(Kind kind, std::uint32_t capacity) {
    switch (kind) {
      case Kind::kMs:
        impl_ = make<MsQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kMsWide:
        impl_ = make<MsQueue<std::uint64_t, sync::Backoff, mem::FreeList,
                             tagged::AtomicTagged128>>(capacity);
        break;
      case Kind::kMsMag:
        impl_ = make<MsQueue<std::uint64_t, sync::Backoff, Mag32>>(capacity);
        break;
      case Kind::kMsHp:
        impl_ = std::make_unique<Model<MsQueueHp<std::uint64_t>>>(
            std::make_unique<MsQueueHp<std::uint64_t>>());
        break;
      case Kind::kTwoLock:
        impl_ = make<TwoLockQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kSingleLock:
        impl_ = make<SingleLockQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kMc:
        impl_ = make<MellorCrummeyQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kRing:
        impl_ = make<RingQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kScq:
        impl_ = make<ScqQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kPlj:
        impl_ = make<PljQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kValois:
        impl_ = make<ValoisQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kSeg:
        impl_ = make<SegmentQueue<std::uint64_t>>(capacity);
        break;
      case Kind::kSharded1:
        impl_ = make<ShardedQueue<MsQueue<std::uint64_t>, 1>>(capacity);
        break;
    }
  }

  bool try_enqueue(std::uint64_t v) { return impl_->enqueue(v); }
  bool try_dequeue(std::uint64_t& v) { return impl_->dequeue(v); }

 private:
  struct Iface {
    virtual ~Iface() = default;
    virtual bool enqueue(std::uint64_t) = 0;
    virtual bool dequeue(std::uint64_t&) = 0;
  };
  template <typename Q>
  struct Model : Iface {
    explicit Model(std::unique_ptr<Q> q) : queue(std::move(q)) {}
    bool enqueue(std::uint64_t v) override { return queue->try_enqueue(v); }
    bool dequeue(std::uint64_t& v) override { return queue->try_dequeue(v); }
    std::unique_ptr<Q> queue;
  };
  template <typename Q>
  static std::unique_ptr<Iface> make(std::uint32_t capacity) {
    return std::make_unique<Model<Q>>(std::make_unique<Q>(capacity));
  }

  std::unique_ptr<Iface> impl_;
};

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<Kind, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    KindsBySeeds, DifferentialTest,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u)));

TEST_P(DifferentialTest, SequentialRandomOpsMatchDequeModel) {
  const auto [kind, seed] = GetParam();
  constexpr std::uint32_t kCapacity = 32;
  AnyQueue queue(kind, kCapacity);
  std::deque<std::uint64_t> model;
  port::Xoshiro256 rng(seed);

  for (int op = 0; op < 50'000; ++op) {
    if (rng.below(100) < 55) {  // slight enqueue bias exercises fullness
      const std::uint64_t value = rng();
      const bool accepted = queue.try_enqueue(value);
      if (accepted) {
        // Bounded queues may refuse only when the model says "full-ish";
        // capacity semantics differ slightly per implementation (dummy
        // node, ring rounding), so we only check the model mirror here.
        model.push_back(value);
      } else {
        ASSERT_GE(model.size(), kCapacity - 1u)
            << "queue refused an enqueue while clearly not full (op " << op
            << ")";
      }
    } else {
      std::uint64_t got = 0;
      const bool ok = queue.try_dequeue(got);
      if (model.empty()) {
        ASSERT_FALSE(ok) << "dequeue fabricated a value from an empty queue";
      } else {
        ASSERT_TRUE(ok) << "dequeue reported empty with "
                        << model.size() << " items in the model (op " << op
                        << ")";
        ASSERT_EQ(got, model.front()) << "FIFO order diverged at op " << op;
        model.pop_front();
      }
    }
  }
}

TEST_P(DifferentialTest, ParallelFillThenDrainMatchesModelMultiset) {
  const auto [kind, seed] = GetParam();
  constexpr std::uint32_t kThreads = 3;
  constexpr std::uint64_t kPerThread = 4'000;
  AnyQueue queue(kind, kThreads * kPerThread + 8);
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        port::Xoshiro256 rng(seed * 1000 + t);
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t value =
              (std::uint64_t{t} << 48) | (rng() & 0xFFFFFFFFull) << 16 | i % 65536;
          while (!queue.try_enqueue(value)) std::this_thread::yield();
        }
      });
    }
  }
  // Drain sequentially; values from each producer must appear in their
  // program order (per-producer FIFO), and counts must match exactly.
  std::uint64_t last_low[kThreads];
  bool seen_any[kThreads] = {};
  std::uint64_t total = 0;
  std::uint64_t got = 0;
  while (queue.try_dequeue(got)) {
    const auto producer = static_cast<std::uint32_t>(got >> 48);
    ASSERT_LT(producer, kThreads);
    const std::uint64_t low = got & 0xFFFF;
    if (seen_any[producer]) {
      ASSERT_EQ(low, (last_low[producer] + 1) % 65536)
          << "per-producer order broke after " << total << " items";
    }
    last_low[producer] = low;
    seen_any[producer] = true;
    ++total;
  }
  EXPECT_EQ(total, std::uint64_t{kThreads} * kPerThread);
}

// --- multi-shard ShardedQueue against its own documented contract -----------

/// Sequential random ops against a MULTISET model: conservation (every
/// dequeued value was enqueued, exactly once) and exact emptiness (with a
/// single thread the coherent-empty scan is trivially exact, so the queue
/// must agree with the model about empty on every single op) -- global
/// FIFO deliberately unchecked.
template <typename Q>
void sequential_sharded_ops_match_multiset(std::uint64_t seed) {
  constexpr std::uint32_t kCapacity = 64;
  Q queue(kCapacity);
  std::multiset<std::uint64_t> model;
  port::Xoshiro256 rng(seed);
  for (int op = 0; op < 50'000; ++op) {
    if (rng.below(100) < 55) {
      const std::uint64_t value = rng();
      if (queue.try_enqueue(value)) {
        model.insert(value);
      } else {
        // Per-shard pools round capacity (dummy nodes, whole segments), so
        // only flag refusals while clearly under aggregate capacity.
        ASSERT_GE(model.size(), kCapacity - 2u * Q::kShards)
            << "refused an enqueue while clearly not full (op " << op << ")";
      }
    } else {
      std::uint64_t got = 0;
      const bool ok = queue.try_dequeue(got);
      if (model.empty()) {
        ASSERT_FALSE(ok) << "fabricated a value from an empty queue";
      } else {
        ASSERT_TRUE(ok) << "sequential empty report with " << model.size()
                        << " items live (op " << op << ")";
        const auto it = model.find(got);
        ASSERT_NE(it, model.end())
            << "dequeued " << got << ": lost, duplicated, or invented";
        model.erase(it);
      }
    }
  }
}

/// Parallel fill, sequential drain: exact multiset totals plus the sharded
/// order contract -- each producer's drain stream splits into at most
/// N increasing runs (one per shard it touched).
template <typename Q>
void parallel_sharded_fill_drain_match_multiset(std::uint64_t seed) {
  constexpr std::uint32_t kThreads = 3;
  constexpr std::uint64_t kPerThread = 4'000;
  Q queue(kThreads * kPerThread + 8);
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        port::Xoshiro256 rng(seed * 1000 + t);
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t value =
              (std::uint64_t{t} << 48) | (rng() & 0xFFFFFFFFull) << 16 |
              i % 65536;
          while (!queue.try_enqueue(value)) std::this_thread::yield();
        }
      });
    }
  }
  std::vector<std::uint64_t> lows[kThreads];
  std::uint64_t total = 0;
  std::uint64_t got = 0;
  while (queue.try_dequeue(got)) {
    const auto producer = static_cast<std::uint32_t>(got >> 48);
    ASSERT_LT(producer, kThreads);
    lows[producer].push_back(got & 0xFFFF);
    ++total;
  }
  EXPECT_EQ(total, std::uint64_t{kThreads} * kPerThread);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(lows[t].size(), kPerThread);
    const std::size_t runs = check::min_increasing_runs(lows[t]);
    EXPECT_LE(runs, Q::kShards)
        << "producer " << t << "'s stream needed " << runs
        << " FIFO runs, more shards than exist";
  }
}

class ShardedDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST_P(ShardedDifferentialTest, SequentialRandomOpsMatchMultisetModel) {
  sequential_sharded_ops_match_multiset<
      ShardedQueue<MsQueue<std::uint64_t>, 4>>(GetParam());
  sequential_sharded_ops_match_multiset<
      ShardedQueue<SegmentQueue<std::uint64_t>, 4>>(GetParam());
}

TEST_P(ShardedDifferentialTest, ParallelFillThenDrainHoldsPerShardFifo) {
  parallel_sharded_fill_drain_match_multiset<
      ShardedQueue<MsQueue<std::uint64_t>, 4>>(GetParam());
  parallel_sharded_fill_drain_match_multiset<
      ShardedQueue<SegmentQueue<std::uint64_t>, 4>>(GetParam());
}

}  // namespace
}  // namespace msq::queues
