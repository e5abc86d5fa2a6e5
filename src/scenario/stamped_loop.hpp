// Open-loop scenario subsystem, part 3: the shared CLOSED-loop stamped
// runner.
//
// Two figure benches (fig_stall, fig_sharded) need the paper's section 4
// pair loop *with item sojourn measurement*: every enqueued value is the
// submitting thread's timestamp, and the dequeuing thread records
// (now - stamp) -- the item's time in (and around) the queue.  Before this
// header each bench carried its own copy of the stamping loop; they now
// share this one, and it lives next to the open-loop driver because the
// stamp/sojourn convention must be identical everywhere sojourn figures
// are compared (same clock, same encoding: the raw steady-clock ns as the
// queue value).
//
// Run shape (inherited from fig_stall, where it is load-bearing): every
// thread keeps doing pairs until EVERY thread has reached its quota.  A
// fixed per-thread quota would let fast threads exit early and leave a
// stall-victim running helper-less -- silently converting a multi-thread
// point into the lone-thread case.  Threads past their quota keep
// operating (their extra pairs are counted); the run ends when the last
// thread arrives.
//
// This is still a CLOSED loop -- each thread submits its next pair when
// the previous one returns, so sojourn here answers "how long do items
// wait when the offered load tracks capacity", not the open-loop question
// (driver.hpp answers that one).  docs/ALGORITHMS.md "Open-loop vs
// closed-loop" spells out the difference.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "harness/driver.hpp"
#include "obs/histogram.hpp"
#include "obs/probe.hpp"
#include "port/clock.hpp"
#include "port/spin_work.hpp"
#include "queues/queue_concept.hpp"

namespace msq::scenario {

struct StampedLoopConfig {
  std::uint32_t threads = 2;
  std::uint64_t pairs = 100'000;    // total across all threads
  std::uint64_t think_iters = 0;    // spin_work between ops (paper's ~6us)
  bool pin_threads = false;
};

struct StampedLoopResult {
  double elapsed_seconds = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t empty_dequeues = 0;    // dequeue retries on observed-empty
  std::uint64_t enqueue_failures = 0;  // enqueue retries on refusal
  std::uint64_t injected_stall_ns = 0;  // fault-layer sleep delivered
  double other_work_seconds = 0;  // the threads' mean think_iters spin time
  obs::Histogram sojourn_ns;  // submit stamp -> dequeue, merged shards
};

/// The paper's paired loop with items carrying their submission stamp and
/// the dequeue side retrying until it lands an item (conservation makes an
/// item always eventually available: at any block point the blocked thread
/// has one more enqueue than dequeue in flight).  The caller owns fault
/// plans and watchdogs; injected stall time is accounted per thread via
/// fault::injected_stall_ns() and summed.
template <queues::ConcurrentQueue Q>
StampedLoopResult run_stamped_pairs(Q& queue,
                                    const StampedLoopConfig& config) {
  const std::uint32_t threads = config.threads;

  struct Shard {
    obs::Histogram sojourn_ns;
    std::uint64_t enq = 0, deq = 0, empty = 0, fail = 0, injected = 0;
    std::int64_t spun_ns = 0;
  };
  std::vector<Shard> shards(threads);
  std::barrier start_barrier(static_cast<std::ptrdiff_t>(threads) + 1);
  // share-ok: run-termination handshake, touched once per pair
  std::atomic<std::uint32_t> at_quota{0};
  std::atomic<bool> stop{false};  // share-ok: ^

  auto worker = [&](std::uint32_t t) {
    Shard& shard = shards[t];
    const std::uint64_t quota =
        config.pairs / threads + (t < config.pairs % threads ? 1 : 0);
    std::uint64_t done = 0;
    bool counted = false;
    const std::uint64_t injected_before = fault::injected_stall_ns();
    if (config.pin_threads) harness::pin_current_thread(t);
    start_barrier.arrive_and_wait();
    // relaxed: the stop flag carries no data; pair results are merged
    // only after the join
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t stamp = static_cast<std::uint64_t>(port::now_ns());
      while (!queue.try_enqueue(stamp)) {
        // fault-cover: benchmark-driver backpressure accounting, not an
        // algorithm window; injecting here would measure the driver
        MSQ_PROBE("bench.enq_retry");
        ++shard.fail;
        // threads > cores: the peer that would dequeue may be preempted
        std::this_thread::yield();
      }
      ++shard.enq;
      port::spin_work_timed(config.think_iters, shard.spun_ns);  // "other work"
      std::uint64_t out = 0;
      while (!queue.try_dequeue(out)) {
        // fault-cover: same driver-loop exemption as bench.enq_retry
        MSQ_PROBE("bench.deq_retry");
        ++shard.empty;
        std::this_thread::yield();
      }
      ++shard.deq;
      shard.sojourn_ns.record(static_cast<std::uint64_t>(port::now_ns()) -
                              out);
      port::spin_work_timed(config.think_iters, shard.spun_ns);  // and repeat
      if (!counted && ++done >= quota) {
        counted = true;
        // acq_rel: the last thread to reach quota must observe every
        // earlier arrival before declaring the run over
        if (at_quota.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            threads) {
          // relaxed: see the load above
          stop.store(true, std::memory_order_relaxed);
        }
      }
    }
    shard.injected = fault::injected_stall_ns() - injected_before;
  };

  StampedLoopResult result;
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back(worker, t);
    }
    // Read before the release, as in harness/driver.hpp.
    const std::int64_t t0 = port::now_ns();
    start_barrier.arrive_and_wait();
    workers.clear();  // join all
    result.elapsed_seconds = port::ns_to_seconds(port::now_ns() - t0);
  }

  for (const Shard& shard : shards) {
    result.sojourn_ns.merge(shard.sojourn_ns);
    result.enqueues += shard.enq;
    result.dequeues += shard.deq;
    result.empty_dequeues += shard.empty;
    result.enqueue_failures += shard.fail;
    result.injected_stall_ns += shard.injected;
    result.other_work_seconds += port::ns_to_seconds(shard.spun_ns) /
                                 static_cast<double>(threads);
  }
  return result;
}

}  // namespace msq::scenario
