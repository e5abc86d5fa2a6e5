// A fixed-size thread pool whose dispatch queue is the two-lock queue --
// the paper's recommendation for busy queues on machines without a
// universal atomic primitive.  Demonstrates the guideline of hiding raw
// threads behind a future-returning executor (CP.61).
//
// The pool runs a toy workload: parallel computation of per-chunk prefix
// checksums over a synthetic buffer, with results returned via futures.
//
// Build & run:   ./build/examples/work_pool
#include <cstdint>
#include <functional>
#include <future>
#include <iostream>
#include <numeric>
#include <thread>
#include <vector>

#include "queues/two_lock_queue.hpp"

namespace {

/// Minimal executor: N workers pull type-erased tasks from a TwoLockQueue.
/// The queue holds raw pointers (the lock-free value restrictions don't
/// apply to the lock-based queue, but pointers keep enqueue cheap).
class WorkPool {
 public:
  explicit WorkPool(unsigned workers, std::uint32_t queue_capacity = 4096)
      : queue_(queue_capacity) {
    for (unsigned i = 0; i < workers; ++i) {
      threads_.emplace_back([this](const std::stop_token& stop) {
        Task* task = nullptr;
        while (!stop.stop_requested()) {
          if (queue_.try_dequeue(task)) {
            task->run();
            delete task;
          } else {
            std::this_thread::yield();
          }
        }
        // Drain on shutdown so no future is left dangling.
        while (queue_.try_dequeue(task)) {
          task->run();
          delete task;
        }
      });
    }
  }

  ~WorkPool() {
    for (auto& t : threads_) t.request_stop();
  }

  /// Submit a callable; returns a future for its result (CP.60).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto* task = new TaskFor<R>(std::forward<F>(fn));
    std::future<R> future = task->promise.get_future();
    while (!queue_.try_enqueue(task)) {
      std::this_thread::yield();  // queue full: backpressure
    }
    return future;
  }

 private:
  struct Task {
    virtual ~Task() = default;
    virtual void run() = 0;
  };
  template <typename R>
  struct TaskFor : Task {
    std::function<R()> fn;
    std::promise<R> promise;
    template <typename F>
    explicit TaskFor(F&& f) : fn(std::forward<F>(f)) {}
    void run() override { promise.set_value(fn()); }
  };

  msq::queues::TwoLockQueue<Task*> queue_;
  std::vector<std::jthread> threads_;
};

}  // namespace

int main() {
  constexpr std::size_t kChunks = 64;
  constexpr std::size_t kChunkSize = 100'000;

  // Synthetic input: chunk c holds values (c, c+1, ...).
  WorkPool pool(4);
  std::vector<std::future<std::uint64_t>> results;
  results.reserve(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    results.push_back(pool.submit([c]() -> std::uint64_t {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < kChunkSize; ++i) {
        acc += (c + i) * 2654435761u % 1000003u;  // toy checksum
      }
      return acc;
    }));
  }

  std::uint64_t total = 0;
  for (auto& f : results) total += f.get();

  // Sequential reference.
  std::uint64_t expected = 0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    for (std::size_t i = 0; i < kChunkSize; ++i) {
      expected += (c + i) * 2654435761u % 1000003u;
    }
  }

  std::cout << "parallel checksum: " << total << "\nsequential check:  "
            << expected << '\n'
            << (total == expected ? "OK\n" : "MISMATCH -- bug!\n");
  return total == expected ? 0 : 1;
}
