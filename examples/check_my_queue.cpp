// Using the correctness harness as a LIBRARY: plug a queue implementation
// into the history recorder + linearizability checkers and find out whether
// it is actually a linearizable FIFO.
//
// To make the point, this example checks two queues:
//   1. msq::queues::MsQueue            -- passes everything;
//   2. BrokenQueue (defined below)     -- an intentionally racy "queue"
//      whose unsynchronised fast path loses and duplicates values under
//      concurrency; the checkers call it out.
//
// Build & run:   ./build/examples/check_my_queue
#include <atomic>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "check/invariants.hpp"
#include "check/lin_check.hpp"
#include "port/clock.hpp"
#include "queues/ms_queue.hpp"

namespace {

/// A classic "works in the demo, loses data in production" queue: atomics
/// used incorrectly -- check-then-act with separate load and store instead
/// of CAS, so two producers commit the same slot and two consumers deliver
/// the same item.  (Atomics keep the example free of formal data races; the
/// LOGIC is what's broken.)
class BrokenQueue {
 public:
  explicit BrokenQueue(std::uint32_t capacity) : ring_(capacity + 1) {}

  bool try_enqueue(std::uint64_t v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) % ring_.size();
    if (next == head_.load(std::memory_order_relaxed)) return false;  // full
    ring_[tail].store(v, std::memory_order_relaxed);
    maybe_yield();  // magnify the check-then-act window so the race fires
                    // reliably, even when a preempted peer must run first
    tail_.store(next, std::memory_order_release);  // lost-update race
    return true;
  }
  bool try_dequeue(std::uint64_t& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;  // empty
    out = ring_[head].load(std::memory_order_relaxed);
    maybe_yield();
    head_.store((head + 1) % ring_.size(),
                std::memory_order_relaxed);  // double-delivery race
    return true;
  }

 private:
  static void maybe_yield() {
    thread_local std::uint32_t counter = 0;
    if (++counter % 64 == 0) std::this_thread::yield();
  }

  std::vector<std::atomic<std::uint64_t>> ring_;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
};

/// Record a concurrent run of `queue` into per-thread logs.
template <typename Q>
std::vector<msq::check::ThreadLog> record_run(Q& queue, std::uint32_t threads,
                                              std::uint64_t pairs) {
  std::vector<msq::check::ThreadLog> logs;
  for (std::uint32_t t = 0; t < threads; ++t) logs.emplace_back(t);
  std::vector<std::jthread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& log = logs[t];
      for (std::uint64_t i = 0; i < pairs; ++i) {
        const std::uint64_t value = msq::check::encode_value(t, i);
        std::int64_t inv = msq::port::now_ns();
        if (queue.try_enqueue(value)) {
          log.record(msq::check::OpKind::kEnqueue, value, inv,
                     msq::port::now_ns());
        }
        std::uint64_t out = 0;
        inv = msq::port::now_ns();
        if (queue.try_dequeue(out)) {
          log.record(msq::check::OpKind::kDequeue, out, inv,
                     msq::port::now_ns());
        }
      }
    });
  }
  workers.clear();
  return logs;
}

template <typename Q>
void check_queue(const char* name, Q& queue) {
  std::cout << "checking " << name << " ...\n";
  const auto logs = record_run(queue, /*threads=*/4, /*pairs=*/20'000);
  const auto history = msq::check::merge_logs(logs);

  const auto conservation = msq::check::check_conservation(history);
  std::cout << "  conservation:       "
            << (conservation.ok ? "OK" : "VIOLATED -- " + conservation.diagnosis)
            << '\n';
  const auto order = msq::check::check_fifo_order(history);
  std::cout << "  real-time FIFO:     "
            << (order.ok ? "OK" : "VIOLATED -- " + order.diagnosis) << '\n';
  const auto consumer = msq::check::check_per_consumer_order(logs);
  std::cout << "  per-consumer order: "
            << (consumer.ok ? "OK" : "VIOLATED -- " + consumer.diagnosis)
            << "\n\n";
}

}  // namespace

int main() {
  {
    msq::queues::MsQueue<std::uint64_t> good(1024);
    check_queue("MsQueue (the paper's non-blocking queue)", good);
  }
  {
    BrokenQueue bad(1024);
    check_queue("BrokenQueue (racy check-then-act)", bad);
  }
  std::cout << "The harness accepts any type with try_enqueue/try_dequeue;\n"
               "wire your own queue through record_run() + the checkers in\n"
               "src/check/ to get the same verdicts.\n";
  return 0;
}
