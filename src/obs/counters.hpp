// Observability layer, part 1: named per-thread-sharded operation counters.
//
// The paper's section 4 argument is about *mechanisms*, not just net time:
// the MS queue wins because failed CASes are cheap retries while lock-based
// algorithms burn their time spinning on a held lock, and bounded
// exponential backoff tames both.  These counters make those mechanisms
// measurable: every instrumented retry loop bumps a named counter
// (cas_attempt/cas_fail, lock_spin, backoff_wait, ...) and the bench layer
// reports them per operation next to the throughput curves.
//
// Design constraints, in order:
//  1. The hot path must stay honest.  Counting is per-thread-sharded
//     (cacheline-padded shards, relaxed increments -- no contention is
//     *added* by the act of measuring contention) and, when no one has
//     called arm(), a probe is a single relaxed load of one shared flag --
//     the same one-relaxed-load-when-unarmed idiom as fault::point().
//  2. Compiled out entirely when MSQ_OBS=0 (or the MSQ_PROBES CMake option
//     is OFF): every entry point degenerates to a constexpr no-op.  The
//     constexpr-ness is itself the compile-time proof that the disabled
//     path contains no atomic operations -- std::atomic loads are not
//     constant-expression-evaluable, so `static_assert((obs::count(...),
//     true))` only compiles when the function body is empty of them
//     (tests/probes_off_test.cpp).
//  3. Snapshots aggregate on read: snapshot() sums the shards with relaxed
//     loads, so writers are never stalled by a reader.  Benches bracket a
//     run with two snapshots and subtract.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "port/cpu.hpp"

// MSQ_PROBES gates BOTH the fault-injection points and the observability
// probes (shared CMake option); MSQ_OBS can additionally be forced to 0 to
// strip only the counters while keeping fault points.
#ifndef MSQ_PROBES
#define MSQ_PROBES 1
#endif
#ifndef MSQ_OBS
#define MSQ_OBS MSQ_PROBES
#endif

namespace msq::obs {

/// The counter registry: the ONE list of counter names.  Each entry is
/// X(enumerator, "report name") with the mechanism it counts beside it;
/// the enum, kAllCounters, counter_name and kCounterCount all expand from
/// it, and tools/check_bench_json.py reads the names from this list too.
/// Names follow the probe-naming convention in docs/ALGORITHMS.md: a
/// counter records *events of one mechanism*, summed over all sites that
/// exhibit it, so curves stay comparable across algorithms.
#define MSQ_COUNTERS(X)                                                      \
  X(kEnqueue, "enqueue")            /* completed enqueue/push operations */  \
  X(kDequeue, "dequeue")            /* completed dequeue/pop (non-empty) */  \
  X(kDequeueEmpty, "dequeue_empty") /* dequeues that observed empty */       \
  X(kCasAttempt, "cas_attempt")     /* linearizing CAS attempts (E9/D12) */  \
  X(kCasFail, "cas_fail")           /* ... of which failed (lost the race) */ \
  X(kBackoffWait, "backoff_wait")   /* cpu_relax() spins inside backoff */   \
  X(kLockAcquire, "lock_acquire")   /* lock() acquisitions */                \
  X(kLockSpin, "lock_spin")         /* spins while the lock was held */      \
  X(kPoolGet, "pool_get")           /* successful node-pool allocations */   \
  X(kPoolRefuse, "pool_refuse")     /* pool-exhausted allocation failures */ \
  X(kExploreRun, "explore_run")     /* schedules run by the sim explorers */ \
  X(kExploreSkip, "explore_skip")   /* degenerate schedules skipped */       \
  X(kRaceReport, "race_report")     /* happens-before violations reported */ \
  X(kPoolCasRetry, "pool_cas_retry") /* failed CASes on the free-list top */ \
  X(kSegClose, "seg_close")         /* segments closed and appended */       \
  X(kMagHit, "mag_hit")             /* allocations served by a magazine */   \
  X(kMagRefill, "mag_refill")       /* magazine refills (batch pops) */      \
  X(kMagFlush, "mag_flush")         /* magazine flushes (batch pushes) */    \
  X(kShardHit, "shard_hit")         /* dequeues served by the home shard */  \
  X(kShardSteal, "shard_steal")     /* dequeues stolen from another shard */ \
  X(kShardRehome, "shard_rehome")   /* producer re-homed off full shards */  \
  X(kEmptyRescan, "empty_rescan")   /* empty sweeps re-run (ticket moved) */ \
  X(kQueueFull, "queue_full")       /* bounded-capacity enqueue refusals */  \
  X(kShedRetry, "shed_retry")       /* open-loop retries after a refusal */  \
  X(kShed, "shed")                  /* open-loop ops dropped after retries */ \
  X(kScqCatchup, "scq_catchup")     /* SCQ dequeuer caught a lagging tail */ \
  X(kScqThresholdReset, "scq_threshold_reset") /* SCQ re-armed 3n-1 */

enum class Counter : std::uint32_t {
#define MSQ_COUNTER_ENUM(id, name) id,
  MSQ_COUNTERS(MSQ_COUNTER_ENUM)
#undef MSQ_COUNTER_ENUM
};

inline constexpr std::array kAllCounters = {
#define MSQ_COUNTER_ALL(id, name) Counter::id,
    MSQ_COUNTERS(MSQ_COUNTER_ALL)
#undef MSQ_COUNTER_ALL
};

inline constexpr std::size_t kCounterCount = kAllCounters.size();

[[nodiscard]] constexpr const char* counter_name(Counter c) noexcept {
  switch (c) {
#define MSQ_COUNTER_NAME(id, name) \
  case Counter::id:                \
    return name;
    MSQ_COUNTERS(MSQ_COUNTER_NAME)
#undef MSQ_COUNTER_NAME
  }
  return "?";
}

/// Aggregated totals at one instant.  Plain values: subtract two snapshots
/// to attribute counts to a bracketed run.
struct Snapshot {
  std::array<std::uint64_t, kCounterCount> totals{};

  [[nodiscard]] std::uint64_t operator[](Counter c) const noexcept {
    return totals[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] Snapshot operator-(const Snapshot& rhs) const noexcept {
    Snapshot d;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      d.totals[i] = totals[i] - rhs.totals[i];
    }
    return d;
  }
  /// Per-operation rate (0 when ops == 0, so empty runs render cleanly).
  [[nodiscard]] double per_op(Counter c, std::uint64_t ops) const noexcept {
    return ops == 0 ? 0.0
                    : static_cast<double>((*this)[c]) /
                          static_cast<double>(ops);
  }
};

#if MSQ_OBS

namespace detail {

/// Shard count bounds memory, not thread count: thread 65+ shares a shard
/// (increments stay atomic, sums stay exact).  Shards of exited threads
/// keep their totals -- aggregate-on-read wants history, not residency.
inline constexpr std::size_t kShards = 64;

struct alignas(port::kCacheLine) Shard {
  std::array<std::atomic<std::uint64_t>, kCounterCount> v{};
};

struct Registry {
  std::array<Shard, kShards> shards{};
  // share-ok: touched once per thread lifetime (shard assignment)
  std::atomic<std::uint32_t> next_slot{0};
};

inline Registry& registry() noexcept {
  static Registry r;
  return r;
}

// share-ok: read-mostly flag; flipped only around bench sections
inline std::atomic<bool> g_armed{false};

/// Cheap thread-local handle: one shard assignment per thread lifetime.
inline Shard& local_shard() noexcept {
  thread_local Shard* shard =
      &registry().shards[registry().next_slot.fetch_add(
                             1, std::memory_order_relaxed) %
                         kShards];
  return *shard;
}

}  // namespace detail

/// Start recording.  Probes hit before arm() cost one relaxed load each.
inline void arm() noexcept {
  detail::g_armed.store(true, std::memory_order_release);
}
inline void disarm() noexcept {
  detail::g_armed.store(false, std::memory_order_release);
}
[[nodiscard]] inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_acquire);
}

/// The probe.  Unarmed: one relaxed load, no store, no shared-line write.
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (!detail::g_armed.load(std::memory_order_relaxed)) [[likely]] return;
  detail::local_shard().v[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

/// Aggregate-on-read: sums every shard with relaxed loads.  Taken while
/// writers run, the result is a consistent-enough monotone snapshot (each
/// counter individually exact up to in-flight increments).
[[nodiscard]] inline Snapshot snapshot() noexcept {
  Snapshot s;
  for (const detail::Shard& shard : detail::registry().shards) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      s.totals[i] += shard.v[i].load(std::memory_order_relaxed);
    }
  }
  return s;
}

/// Zero every shard.  Only meaningful while no instrumented code runs;
/// bracketing with two snapshots is the race-free alternative.
inline void reset() noexcept {
  for (detail::Shard& shard : detail::registry().shards) {
    for (auto& cell : shard.v) cell.store(0, std::memory_order_relaxed);
  }
}

namespace detail {

/// The pool_hwm gauge is NOT sharded, unlike the counters above: a
/// high-water mark is a max over the true global value, and max does not
/// distribute over per-shard sums (each shard's local peak can occur at a
/// different instant, so summing shard maxima overstates the real peak).
/// Exactness requires one shared current/hwm pair; allocators absorb one
/// armed fetch_add per pool transition, which the benches that arm it are
/// explicitly paying to measure.
struct alignas(port::kCacheLine) PoolGauge {
  // share-ok: current+hwm are one gauge updated by the same sites; the
  // struct is cache-aligned as a unit
  std::atomic<std::int64_t> current{0};
  // share-ok: same gauge as `current` above, aligned as a unit
  std::atomic<std::int64_t> hwm{0};
};

inline PoolGauge& pool_gauge() noexcept {
  static PoolGauge g;
  return g;
}

}  // namespace detail

/// Record a pool population change (+n allocate, -n free).  Unarmed: one
/// relaxed load, identical cost profile to count().
inline void pool_gauge_add(std::int64_t delta) noexcept {
  if (!detail::g_armed.load(std::memory_order_relaxed)) [[likely]] return;
  detail::PoolGauge& g = detail::pool_gauge();
  const std::int64_t now =
      g.current.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (delta > 0) {
    std::int64_t seen = g.hwm.load(std::memory_order_relaxed);
    while (seen < now &&
           !g.hwm.compare_exchange_weak(seen, now, std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }
}

/// Peak nodes outstanding since the last pool_gauge_reset().
[[nodiscard]] inline std::int64_t pool_gauge_hwm() noexcept {
  return detail::pool_gauge().hwm.load(std::memory_order_acquire);
}

/// Nodes outstanding right now (relative to the last reset).
[[nodiscard]] inline std::int64_t pool_gauge_current() noexcept {
  return detail::pool_gauge().current.load(std::memory_order_acquire);
}

/// Re-zero the gauge.  Call before constructing the structure under test so
/// the baseline is "no nodes outstanding"; like reset(), only meaningful
/// while no instrumented code runs.
inline void pool_gauge_reset() noexcept {
  detail::pool_gauge().current.store(0, std::memory_order_relaxed);
  detail::pool_gauge().hwm.store(0, std::memory_order_relaxed);
}

#else  // MSQ_OBS == 0: constexpr no-ops (see header comment, point 2).

constexpr void arm() noexcept {}
constexpr void disarm() noexcept {}
[[nodiscard]] constexpr bool armed() noexcept { return false; }
constexpr void count(Counter, std::uint64_t = 1) noexcept {}
[[nodiscard]] inline Snapshot snapshot() noexcept { return {}; }
constexpr void reset() noexcept {}
constexpr void pool_gauge_add(std::int64_t) noexcept {}
[[nodiscard]] constexpr std::int64_t pool_gauge_hwm() noexcept { return 0; }
[[nodiscard]] constexpr std::int64_t pool_gauge_current() noexcept {
  return 0;
}
constexpr void pool_gauge_reset() noexcept {}

#endif  // MSQ_OBS

/// Local spin tally for lock loops: accumulate in a register while
/// spinning, publish once on exit, so the armed cost stays out of the
/// spin loop itself.  Compiles to nothing when MSQ_OBS=0.
class SpinTally {
 public:
#if MSQ_OBS
  void bump(std::uint64_t n = 1) noexcept { n_ += n; }
  void commit(Counter c) noexcept {
    if (n_ != 0) {
      count(c, n_);
      n_ = 0;
    }
  }

 private:
  std::uint64_t n_ = 0;
#else
  constexpr void bump(std::uint64_t = 1) noexcept {}
  constexpr void commit(Counter) noexcept {}
#endif
};

}  // namespace msq::obs

/// Site-side sugar: MSQ_COUNT(kCasFail) / MSQ_COUNT_N(kBackoffWait, spins).
#define MSQ_COUNT(counter) ::msq::obs::count(::msq::obs::Counter::counter)
#define MSQ_COUNT_N(counter, n) \
  ::msq::obs::count(::msq::obs::Counter::counter, (n))
/// Pool-population gauge sugar for allocator sites (see pool_gauge_add).
#define MSQ_POOL_GAUGE(delta) ::msq::obs::pool_gauge_add(delta)
