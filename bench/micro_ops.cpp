// A1/A5: per-operation microbenchmarks (google-benchmark).
//
// Measures, for every queue in the library:
//   * uncontended enqueue/dequeue pair latency (the "one processor" end of
//     Figure 3, where the paper notes the single lock is slightly fastest);
//   * multi-threaded pair throughput (contended: 4 threads, so on fewer
//     than 4 cores this is the preempted/multiprogrammed regime);
//   * the empty<->nonempty transition (A5): the special case earlier
//     algorithms got wrong, exercised a pair at a time on an empty queue.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "queues/queues.hpp"

namespace {

using msq::queues::MellorCrummeyQueue;
using msq::queues::MsQueue;
using msq::queues::MsQueueHp;
using msq::queues::PljQueue;
using msq::queues::RingQueue;
using msq::queues::SegmentQueue;
using msq::queues::ShardedQueue;
using msq::queues::SingleLockQueue;
using msq::queues::SpscRing;
using msq::queues::TreiberStack;
using msq::queues::TwoLockQueue;
using msq::queues::ValoisQueue;

// Figure 1 on the 128-bit cmpxchg16b counted word (ablation A3).
using MsQueueWide = MsQueue<std::uint64_t, msq::sync::Backoff, msq::mem::FreeList,
                            msq::tagged::AtomicTagged128>;

template <typename Q>
struct Make {
  static std::unique_ptr<Q> make(std::uint32_t capacity) {
    return std::make_unique<Q>(capacity);
  }
};
template <typename T, typename B>
struct Make<MsQueueHp<T, B>> {
  static std::unique_ptr<MsQueueHp<T, B>> make(std::uint32_t) {
    return std::make_unique<MsQueueHp<T, B>>();
  }
};

// --- uncontended pair latency -----------------------------------------------

template <typename Q>
void BM_UncontendedPair(benchmark::State& state) {
  auto queue = Make<Q>::make(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue->try_enqueue(1));
    benchmark::DoNotOptimize(queue->try_dequeue(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_UncontendedPair, MsQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, MsQueueWide);
BENCHMARK_TEMPLATE(BM_UncontendedPair, MsQueueHp<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, TwoLockQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, SingleLockQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, MellorCrummeyQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, RingQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, PljQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, ValoisQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, SegmentQueue<std::uint64_t>);
// Sharded front end: the single-thread numbers price the ticket overhead
// (one extra fetch_add per enqueue over the inner queue alone).
BENCHMARK_TEMPLATE(BM_UncontendedPair,
                   ShardedQueue<MsQueue<std::uint64_t>, 4>);
BENCHMARK_TEMPLATE(BM_UncontendedPair,
                   ShardedQueue<SegmentQueue<std::uint64_t>, 4>);

// --- contended pair throughput ----------------------------------------------

template <typename Q>
void BM_ContendedPairs(benchmark::State& state) {
  static std::unique_ptr<Q> queue;
  if (state.thread_index() == 0) queue = Make<Q>::make(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    while (!queue->try_enqueue(1)) {
    }
    benchmark::DoNotOptimize(queue->try_dequeue(out));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    // Leave teardown to the next setup / process exit.
  }
}
BENCHMARK_TEMPLATE(BM_ContendedPairs, MsQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, MsQueueWide)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, MsQueueHp<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, TwoLockQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, SingleLockQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, MellorCrummeyQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, RingQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, PljQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, ValoisQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, SegmentQueue<std::uint64_t>)->Threads(4)->UseRealTime();
// Sharding pays off exactly here: 4 threads spread over 4 shards touch
// almost-disjoint cache lines (compare against bare segq above).
BENCHMARK_TEMPLATE(BM_ContendedPairs,
                   ShardedQueue<MsQueue<std::uint64_t>, 4>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs,
                   ShardedQueue<SegmentQueue<std::uint64_t>, 4>)->Threads(4)->UseRealTime();

// --- A5: empty<->nonempty transition ----------------------------------------

template <typename Q>
void BM_EmptyTransition(benchmark::State& state) {
  auto queue = Make<Q>::make(8);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue->try_dequeue(out));  // observe empty
    benchmark::DoNotOptimize(queue->try_enqueue(1));    // empty -> 1
    benchmark::DoNotOptimize(queue->try_dequeue(out));  // 1 -> empty
  }
}
BENCHMARK_TEMPLATE(BM_EmptyTransition, MsQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, TwoLockQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, SingleLockQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, MellorCrummeyQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, RingQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, PljQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, ValoisQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, SegmentQueue<std::uint64_t>);
// The sharded empty path is the expensive one (full sweep + ticket double
// collect per empty verdict): keep it visible next to the single queues.
BENCHMARK_TEMPLATE(BM_EmptyTransition, ShardedQueue<MsQueue<std::uint64_t>, 4>);
BENCHMARK_TEMPLATE(BM_EmptyTransition,
                   ShardedQueue<SegmentQueue<std::uint64_t>, 4>);

// --- related structures -------------------------------------------------------

void BM_SpscRingPair(benchmark::State& state) {
  SpscRing<std::uint64_t> ring(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_enqueue(1));
    benchmark::DoNotOptimize(ring.try_dequeue(out));
  }
}
BENCHMARK(BM_SpscRingPair);

void BM_TreiberStackPair(benchmark::State& state) {
  TreiberStack<std::uint64_t> stack(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.try_push(1));
    benchmark::DoNotOptimize(stack.try_pop(out));
  }
}
BENCHMARK(BM_TreiberStackPair);

}  // namespace

BENCHMARK_MAIN();
