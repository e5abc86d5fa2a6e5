// Interface of the simulated queue algorithms plus small shared helpers.
#pragma once

#include <cstdint>

#include "obs/counters.hpp"
#include "sim/engine.hpp"

namespace msq::sim {

/// dequeue() result meaning "queue was empty".
inline constexpr std::uint64_t kEmpty = ~0ull;

/// Abstract simulated queue; each operation advances one shared-memory
/// access per engine step.
class SimQueue {
 public:
  virtual ~SimQueue() = default;
  /// False iff the simulated node pool is exhausted.
  virtual bool enqueue(Proc& p, std::uint64_t value) = 0;
  /// kEmpty iff the queue was observed empty.
  virtual std::uint64_t dequeue(Proc& p) = 0;

  /// Walk the structure between steps and abort-with-message on a broken
  /// safety invariant (paper section 3.1).  Default: no structural check.
  virtual void check_invariants() const {}
};

/// Deterministic bounded exponential backoff expressed as work() cost, used
/// by every simulated retry loop (paper section 4's backoff).  Also the
/// knob for the backoff ablation (set max = 0 to disable).
class SimBackoff {
 public:
  explicit SimBackoff(double max = 1024) noexcept : max_(max) {}
  [[nodiscard]] double next() noexcept {
    const double w = window_;
    if (window_ < max_) window_ *= 2;
    if (max_ <= 0) return 1;  // backoff disabled: minimal retry cost, no wait
    MSQ_COUNT_N(kBackoffWait, static_cast<std::uint64_t>(w));
    return w;
  }

 private:
  double window_ = 4;
  double max_;
};

}  // namespace msq::sim
