// The paper's benchmark loop (section 4), generalised over queue type.
//
// "All the experiments employ an initially-empty queue to which processes
//  perform a series of enqueue and dequeue operations.  Each process
//  enqueues an item, does 'other work', dequeues an item, does 'other
//  work', and repeats.  With p processes, each process executes this loop
//  floor(10^6/p) or ceil(10^6/p) times, for a total of one million enqueues
//  and dequeues. ... We subtracted the time required for one processor to
//  complete the 'other work' from the total time."
//
// The driver reproduces that loop with std::jthread workers, optionally
// recording an operation history for the linearizability checkers.  A run
// with more threads than cores is multiprogrammed (a thread can be
// preempted mid-operation); the simulator (src/sim) provides the
// dedicated-machine curves.
#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "check/invariants.hpp"
#include "fault/watchdog.hpp"
#include "obs/histogram.hpp"
#include "port/clock.hpp"
#include "port/cpu.hpp"
#include "port/spin_work.hpp"
#include "queues/queue_concept.hpp"

namespace msq::harness {

struct WorkloadConfig {
  std::uint32_t threads = 2;
  std::uint64_t total_pairs = 1'000'000;  // the paper's 10^6
  std::uint64_t other_work_iters = 0;     // spin between ops (see calibrate)
  bool record_history = false;            // per-op timestamps + event logs
  bool record_latency = false;            // per-op ns histograms (obs)
  /// Pin worker t to CPU (t mod hardware_concurrency).  Dedicated-mode
  /// benches stop migrating between cores mid-run; multiprogrammed runs
  /// (threads > cores) keep it off so the scheduler can do its job.
  bool pin_threads = false;
  /// Deadline for the whole parallel phase; 0 = no watchdog.  A wedged run
  /// (deadlock, livelock, a faulted thread that never comes back) aborts
  /// loudly with the workload name instead of hanging the caller forever.
  std::chrono::milliseconds watchdog_deadline{0};
};

struct WorkloadResult {
  double elapsed_seconds = 0;  // wall time of the parallel phase
  double net_seconds = 0;      // elapsed minus one processor's "other work"
  double other_work_seconds = 0;  // that share: the threads' mean spin time
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;        // successful
  std::uint64_t empty_dequeues = 0;  // observed-empty results
  std::uint64_t enqueue_failures = 0;  // pool exhausted (retried)
  std::vector<check::ThreadLog> logs;  // filled iff record_history
  obs::Histogram enqueue_latency_ns;   // filled iff record_latency
  obs::Histogram dequeue_latency_ns;   // filled iff record_latency
};

/// Pin the calling thread to `cpu` (mod the online CPU count).  Returns
/// false (and leaves affinity untouched) on platforms without
/// pthread_setaffinity_np or when the syscall is refused -- pinning is an
/// optimisation, never a correctness requirement.
bool pin_current_thread(std::uint32_t cpu) noexcept;

/// Open-loop pacing hook (src/scenario): wait until port::now_ns() reaches
/// `deadline_ns`, yielding rather than spinning so that, with more threads
/// than cores, the consumers this thread is pacing against still run.  Returns the lateness
/// in nanoseconds (0 when the deadline was met; positive when the caller
/// fell behind schedule and the wait was a no-op).  Lateness is what the
/// coordinated-omission-safe drivers record: the op is stamped with the
/// intended deadline, never with the late return time.
std::int64_t await_deadline_ns(std::int64_t deadline_ns) noexcept;

/// Run the paper's loop against `queue`.  The queue must hold std::uint64_t
/// values (the harness encodes producer/sequence in them).
template <queues::ConcurrentQueue Q>
WorkloadResult run_workload(Q& queue, const WorkloadConfig& config) {
  const std::uint32_t p = config.threads;
  WorkloadResult result;
  result.logs.reserve(p);
  for (std::uint32_t t = 0; t < p; ++t) result.logs.emplace_back(t);

  // share-ok: each worker touches these once at exit (locals carry the hot
  // path), so false sharing costs nothing measurable here
  std::atomic<std::uint64_t> enqueues{0};
  std::atomic<std::uint64_t> dequeues{0};  // share-ok: see above
  std::atomic<std::uint64_t> empty_dequeues{0};  // share-ok: see above
  std::atomic<std::uint64_t> enqueue_failures{0};  // share-ok: see above
  std::atomic<std::int64_t> spun_ns{0};  // share-ok: see above
  std::barrier start_barrier(static_cast<std::ptrdiff_t>(p) + 1);

  // Per-thread shards, merged after the join: Histogram is deliberately
  // non-atomic (see obs/histogram.hpp), so each worker records privately.
  struct LatencyShard {
    obs::Histogram enqueue_ns;
    obs::Histogram dequeue_ns;
  };
  std::vector<LatencyShard> latency(config.record_latency ? p : 0);

  auto worker = [&](std::uint32_t thread_id) {
    // floor or ceil of total/p so the totals add up exactly, as in the paper.
    const std::uint64_t pairs =
        config.total_pairs / p + (thread_id < config.total_pairs % p ? 1 : 0);
    check::ThreadLog& log = result.logs[thread_id];
    if (config.record_history) log.reserve(2 * pairs);
    const bool timed = config.record_history || config.record_latency;

    std::uint64_t local_enq = 0, local_deq = 0, local_empty = 0, local_fail = 0;
    std::int64_t local_spun_ns = 0;
    if (config.pin_threads) pin_current_thread(thread_id);
    start_barrier.arrive_and_wait();

    for (std::uint64_t i = 0; i < pairs; ++i) {
      // enqueue an item ...
      const std::uint64_t value = check::encode_value(thread_id, i);
      const std::int64_t enq_inv = timed ? port::now_ns() : 0;
      while (!queue.try_enqueue(value)) {
        ++local_fail;  // pool exhausted: another thread must dequeue first
        port::cpu_relax();
      }
      ++local_enq;
      if (timed) {
        const std::int64_t enq_done = port::now_ns();
        if (config.record_history) {
          log.record(check::OpKind::kEnqueue, value, enq_inv, enq_done);
        }
        if (config.record_latency) {
          latency[thread_id].enqueue_ns.record(
              static_cast<std::uint64_t>(enq_done - enq_inv));
        }
      }
      // ... do "other work" ...
      port::spin_work_timed(config.other_work_iters, local_spun_ns);
      // ... dequeue an item ...
      std::uint64_t out = 0;
      const std::int64_t deq_inv = timed ? port::now_ns() : 0;
      const bool got = queue.try_dequeue(out);
      if (got) {
        ++local_deq;
      } else {
        ++local_empty;
      }
      if (timed) {
        const std::int64_t deq_done = port::now_ns();
        if (config.record_history) {
          log.record(
              got ? check::OpKind::kDequeue : check::OpKind::kDequeueEmpty,
              out, deq_inv, deq_done);
        }
        if (config.record_latency) {
          latency[thread_id].dequeue_ns.record(
              static_cast<std::uint64_t>(deq_done - deq_inv));
        }
      }
      // ... do "other work", and repeat.
      port::spin_work_timed(config.other_work_iters, local_spun_ns);
    }

    // relaxed: totals are read only after the join below synchronizes
    enqueues.fetch_add(local_enq, std::memory_order_relaxed);
    dequeues.fetch_add(local_deq, std::memory_order_relaxed);  // relaxed: ^
    empty_dequeues.fetch_add(local_empty, std::memory_order_relaxed);  // relaxed: ^
    enqueue_failures.fetch_add(local_fail, std::memory_order_relaxed);  // relaxed: ^
    spun_ns.fetch_add(local_spun_ns, std::memory_order_relaxed);  // relaxed: ^
  };

  {
    std::unique_ptr<fault::Watchdog> watchdog;
    if (config.watchdog_deadline.count() > 0) {
      watchdog = std::make_unique<fault::Watchdog>(config.watchdog_deadline,
                                                   "harness workload");
    }
    std::vector<std::jthread> threads;
    threads.reserve(p);
    for (std::uint32_t t = 0; t < p; ++t) threads.emplace_back(worker, t);
    // The clock starts before the workers are released: were it read
    // after, a descheduled main thread would start it late, and the
    // in-run spin time subtracted below could exceed the elapsed time.
    const std::int64_t t0 = port::now_ns();
    start_barrier.arrive_and_wait();
    threads.clear();  // join all
    const std::int64_t t1 = port::now_ns();
    result.elapsed_seconds = port::ns_to_seconds(t1 - t0);
  }

  // relaxed: workers are joined; the join is the synchronization
  result.enqueues = enqueues.load(std::memory_order_relaxed);
  result.dequeues = dequeues.load(std::memory_order_relaxed);  // relaxed: ^
  result.empty_dequeues = empty_dequeues.load(std::memory_order_relaxed);  // relaxed: ^
  result.enqueue_failures = enqueue_failures.load(std::memory_order_relaxed);  // relaxed: ^
  for (const LatencyShard& shard : latency) {
    result.enqueue_latency_ns.merge(shard.enqueue_ns);
    result.dequeue_latency_ns.merge(shard.dequeue_ns);
  }

  // Subtract one processor's worth of "other work" (paper section 4): the
  // mean of the threads' spin time, measured in this run -- warm, and
  // pinned or not as the run was.  Not clamped: a negative net would mean
  // the subtraction is wrong, and should show.
  result.other_work_seconds =
      // relaxed: the workers are joined above
      port::ns_to_seconds(spun_ns.load(std::memory_order_relaxed)) /
      static_cast<double>(p);
  result.net_seconds = result.elapsed_seconds - result.other_work_seconds;
  return result;
}

}  // namespace msq::harness
