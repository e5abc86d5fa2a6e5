// The paper's "other work": ~6us of spinning in an empty loop between queue
// operations, which "serves to make the experiments more realistic by
// preventing long runs of queue operations by the same process".  We provide
// the same device: an opaque spin of N iterations, plus a calibration helper
// (harness/calibrate.hpp) that converts microseconds to iterations.
#pragma once

#include <cstdint>

#include "port/clock.hpp"

namespace msq::port {

/// Spin for `iters` iterations of work the optimiser cannot elide.
inline void spin_work(std::uint64_t iters) noexcept {
  for (std::uint64_t i = 0; i < iters; ++i) {
    asm volatile("" ::: "memory");
  }
}

/// spin_work(iters), adding its wall time to `spent_ns`: benchmark loops
/// measure their "other work" in the very run they subtract it from.
inline void spin_work_timed(std::uint64_t iters,
                            std::int64_t& spent_ns) noexcept {
  if (iters == 0) return;
  const std::int64_t t0 = now_ns();
  spin_work(iters);
  spent_ns += now_ns() - t0;
}

}  // namespace msq::port
