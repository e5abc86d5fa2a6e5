// Self-test of the benchmark's correctness gate: a queue that silently
// drops one item and enqueues another twice must be reported as exactly
// one lost and one duplicated item on every workload shape, and a sound
// queue as no failure at all.  Exit status 0 iff every case holds.
#include <cstdio>

#include "queues/ms_queue.hpp"
#include "workloads.hpp"

namespace {

using Item = std::uint64_t;
using Inner = msq::queues::MsQueue<Item>;

/// Forwards to Inner, except that its kDupAt-th enqueue goes in twice and
/// its kDropAt-th enqueue is acknowledged but never stored.
class FaultyQueue {
 public:
  using value_type = Item;
  static constexpr std::uint64_t kDupAt = 10;
  static constexpr std::uint64_t kDropAt = 20;

  explicit FaultyQueue(std::uint32_t capacity) : q_(capacity) {}

  bool try_enqueue(Item v) noexcept {
    const std::uint64_t n = enqueues_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == kDropAt) return true;
    if (n == kDupAt && !q_.try_enqueue(v)) return false;
    return q_.try_enqueue(v);
  }
  bool try_dequeue(Item& out) noexcept { return q_.try_dequeue(out); }

 private:
  Inner q_;
  std::atomic<std::uint64_t> enqueues_{0};
};

struct Case {
  const char* name;
  perfbench::Kind kind;
  std::uint32_t threads;
  std::uint32_t producers;
};

template <typename Q>
bool check(const Case& c, std::uint64_t want_lost, std::uint64_t want_dup) {
  perfbench::SliceSpec spec;
  spec.kind = c.kind;
  spec.threads = c.threads;
  spec.producers = c.producers;
  spec.window_ns = 20'000'000;
  spec.rate_per_s = 200e3;
  spec.seed = 7;
  spec.capacity = 1u << 16;  // more than a slice offers: nothing is shed
  const perfbench::Verdict v = perfbench::run_slice<Q>(spec).verdict;
  const bool ok = v.lost == want_lost && v.duplicated == want_dup && v.fabricated == 0 &&
                  v.out_of_order == 0 && v.shed == 0 && v.attempted > FaultyQueue::kDropAt;
  std::printf("%-4s %-16s attempted=%llu lost=%llu duplicated=%llu fabricated=%llu "
              "out_of_order=%llu shed=%llu (want lost=%llu duplicated=%llu)\n",
              ok ? "ok" : "FAIL", c.name, static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.lost), static_cast<unsigned long long>(v.duplicated),
              static_cast<unsigned long long>(v.fabricated),
              static_cast<unsigned long long>(v.out_of_order), static_cast<unsigned long long>(v.shed),
              static_cast<unsigned long long>(want_lost), static_cast<unsigned long long>(want_dup));
  return ok;
}

}  // namespace

int main() {
  const Case cases[] = {
      {"pairs-solo", perfbench::Kind::kPairs, 1, 0},
      {"pairs-contended", perfbench::Kind::kPairs, 3, 0},
      {"handoff-open", perfbench::Kind::kHandoff, 3, 2},
  };
  bool ok = true;
  for (const Case& c : cases) {
    ok = check<FaultyQueue>(c, 1, 1) && ok;
    ok = check<Inner>(c, 0, 0) && ok;
  }
  return ok ? 0 : 1;
}
