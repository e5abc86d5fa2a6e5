// Tests for the open-loop scenario subsystem (src/scenario/): arrival
// schedule generation, the SLO evaluator, the shed-or-retry enqueue
// policy, and -- the load-bearing one -- coordinated-omission safety of
// the producer's stamping, proven with a deterministic virtual clock that
// falls arbitrarily far behind its schedule.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "harness/calibrate.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "queues/ms_queue.hpp"
#include "queues/ring_queue.hpp"
#include "scenario/arrival.hpp"
#include "scenario/driver.hpp"
#include "scenario/presets.hpp"
#include "scenario/slo.hpp"

namespace msq {
namespace {

using scenario::ArrivalSpec;
using scenario::RateShape;

// ---------------------------------------------------------------- arrivals

TEST(ScenarioArrivalTest, DeterministicGivenSeed) {
  ArrivalSpec spec;
  spec.ops = 2000;
  spec.producers = 3;
  const auto a = scenario::generate_arrivals(spec, 42);
  const auto b = scenario::generate_arrivals(spec, 42);
  EXPECT_EQ(a.per_producer, b.per_producer);
  EXPECT_EQ(a.horizon_ns, b.horizon_ns);

  const auto c = scenario::generate_arrivals(spec, 43);
  EXPECT_NE(a.per_producer, c.per_producer);
}

TEST(ScenarioArrivalTest, CountsConserveAndListsSorted) {
  ArrivalSpec spec;
  spec.ops = 5000;
  spec.producers = 4;
  const auto schedule = scenario::generate_arrivals(spec, 7);
  ASSERT_EQ(schedule.per_producer.size(), 4u);

  std::uint64_t total = 0;
  for (const auto& list : schedule.per_producer) {
    total += list.size();
    for (std::size_t i = 1; i < list.size(); ++i) {
      ASSERT_LE(list[i - 1], list[i]) << "per-producer list not sorted";
    }
  }
  EXPECT_EQ(total, spec.ops);
  EXPECT_EQ(schedule.ops, spec.ops);
  EXPECT_GT(schedule.offered_rate_hz, 0.0);
}

TEST(ScenarioArrivalTest, DiurnalRateTroughAndPeak) {
  ArrivalSpec spec;
  spec.ops = 1000;
  spec.base_rate_hz = 10'000;
  spec.shape = RateShape::kDiurnal;
  spec.diurnal_amplitude = 0.8;
  const double horizon = scenario::nominal_horizon_seconds(spec);
  // Phase -pi/2 at t=0: the run starts at the trough, peaks mid-run.
  EXPECT_NEAR(scenario::rate_at_hz(spec, 0.0), 2'000, 1.0);
  EXPECT_NEAR(scenario::rate_at_hz(spec, horizon / 2), 18'000, 1.0);
  EXPECT_NEAR(scenario::mean_rate_hz(spec), 10'000, 1e-9);
}

TEST(ScenarioArrivalTest, BurstWindowCarriesMostArrivals) {
  ArrivalSpec spec;
  spec.ops = 3000;
  spec.base_rate_hz = 1'000;
  spec.shape = RateShape::kBurst;
  spec.burst_factor = 100.0;
  spec.burst_start_frac = 0.45;
  spec.burst_len_frac = 0.10;
  spec.producers = 2;
  // Mean rate folds the burst in: base * (1 + 99 * 0.1).
  EXPECT_NEAR(scenario::mean_rate_hz(spec), 10'900, 1e-9);

  const auto schedule = scenario::generate_arrivals(spec, 11);
  const double horizon_ns =
      scenario::nominal_horizon_seconds(spec) * 1e9;
  const auto win_lo = static_cast<std::uint64_t>(0.45 * horizon_ns);
  const auto win_hi = static_cast<std::uint64_t>(0.55 * horizon_ns);
  std::uint64_t in_window = 0;
  for (const auto& list : schedule.per_producer) {
    for (const std::uint64_t t : list) {
      if (t >= win_lo && t < win_hi) ++in_window;
    }
  }
  // The 10% window at 100x rate should hold the clear majority of ops
  // (expectation ~92%); >50% is a loose, non-flaky bound.
  EXPECT_GT(in_window, spec.ops / 2)
      << "burst window holds " << in_window << "/" << spec.ops;
}

TEST(ScenarioPresetTest, BurstShedBoundIsTheInWindowCeiling) {
  // burst100's shed bound comes from its arrival spec: the expected
  // in-window share of arrivals (100 * 0.1 / (1 + 99 * 0.1) = 10 / 10.9)
  // less the ring's 32 slots, per offered op.  Shedding only inside the
  // window can never exceed it, whatever the host's speed.
  const auto presets = scenario::builtin_presets(1500);
  const scenario::ScenarioPreset* burst = nullptr;
  for (const auto& p : presets) {
    if (p.name == "burst100") burst = &p;
  }
  ASSERT_NE(burst, nullptr);
  EXPECT_NEAR(burst->slo.shed_rate_max, 10.0 / 10.9 - 32.0 / 1500.0, 1e-12);
  // More ops dilute the capacity term; the ceiling tends to the window share.
  EXPECT_NEAR(scenario::in_window_shed_ceiling(burst->arrival, 0),
              10.0 / 10.9, 1e-12);
  EXPECT_EQ(scenario::in_window_shed_ceiling(burst->arrival, 1500), 0.0);
}

TEST(ScenarioArrivalTest, HotShareSkewsProducerZero) {
  ArrivalSpec spec;
  spec.ops = 5000;
  spec.producers = 4;
  spec.hot_share = 0.9;
  const auto schedule = scenario::generate_arrivals(spec, 3);
  const double share =
      static_cast<double>(schedule.per_producer[0].size()) /
      static_cast<double>(spec.ops);
  EXPECT_GT(share, 0.85);
  EXPECT_LT(share, 0.95);
}

// --------------------------------------------------------------------- SLO

TEST(ScenarioSloTest, ClauseBoundariesAndDisabling) {
  obs::Histogram hist;
  // 0.5% outliers: above the p99 rank, below the p99.9 one, so the two
  // clauses are judged against different buckets.
  for (int i = 0; i < 995; ++i) hist.record(1'000);
  for (int i = 0; i < 5; ++i) hist.record(1'000'000'000);

  // Read the measured percentiles back, then judge at exact boundaries:
  // <= passes at equality, fails one below.
  const auto measured = scenario::evaluate_slo({}, hist, 1000, 0);
  ASSERT_GT(measured.p999_ns, measured.p99_ns);

  scenario::SloSpec at_boundary{.p99_ns_max = measured.p99_ns,
                                .p999_ns_max = measured.p999_ns,
                                .shed_rate_max = 0.0};
  EXPECT_TRUE(scenario::evaluate_slo(at_boundary, hist, 1000, 0).pass());

  scenario::SloSpec below{.p99_ns_max = measured.p99_ns - 1,
                          .p999_ns_max = measured.p999_ns,
                          .shed_rate_max = 0.0};
  const auto v = scenario::evaluate_slo(below, hist, 1000, 0);
  EXPECT_FALSE(v.p99_ok);
  EXPECT_TRUE(v.p999_ok);
  EXPECT_FALSE(v.pass());
  EXPECT_STREQ(v.verdict(), "fail");

  // A zero threshold DISABLES the clause rather than demanding 0 ns.
  scenario::SloSpec disabled{.p99_ns_max = 0, .p999_ns_max = 0,
                             .shed_rate_max = 0.0};
  EXPECT_TRUE(scenario::evaluate_slo(disabled, hist, 1000, 0).pass());
}

TEST(ScenarioSloTest, ShedRateClause) {
  obs::Histogram hist;
  hist.record(100);
  scenario::SloSpec spec{.p99_ns_max = 0, .p999_ns_max = 0,
                         .shed_rate_max = 0.10};
  EXPECT_TRUE(scenario::evaluate_slo(spec, hist, 100, 10).pass());
  const auto v = scenario::evaluate_slo(spec, hist, 100, 11);
  EXPECT_FALSE(v.shed_ok);
  EXPECT_NEAR(v.shed_rate, 0.11, 1e-12);
  // Vacuous pass on an empty run.
  EXPECT_TRUE(scenario::evaluate_slo(spec, obs::Histogram{}, 0, 0).pass());
}

// ------------------------------------------------------------- shed policy

TEST(ScenarioPolicyTest, RetriesThenShedsOnFullQueue) {
  queues::RingQueue<std::uint64_t> queue(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.try_enqueue(i));
  }

  obs::arm();  // probes are no-ops until armed
  const obs::Snapshot before = obs::snapshot();
  scenario::ShedPolicy policy{.max_retries = 3};
  scenario::ProducerStats stats;
  EXPECT_FALSE(scenario::offer_with_policy(queue, 99, policy, stats));
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.enqueued, 0u);

  // Capacity freed: the same policy now accepts on the first attempt.
  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_dequeue(out));
  EXPECT_TRUE(scenario::offer_with_policy(queue, 99, policy, stats));
  EXPECT_EQ(stats.enqueued, 1u);
  EXPECT_EQ(stats.retries, 3u);  // unchanged

  const obs::Snapshot delta = obs::snapshot() - before;
  obs::disarm();
#if MSQ_OBS
  // 4 refusals hit the ring's capacity-bound path (1 first try + 3
  // retries), of which 3 were retry transitions and 1 ended in a shed.
  EXPECT_EQ(delta[obs::Counter::kQueueFull], 4u);
  EXPECT_EQ(delta[obs::Counter::kShedRetry], 3u);
  EXPECT_EQ(delta[obs::Counter::kShed], 1u);
#else
  (void)delta;
#endif
}

TEST(ScenarioPolicyTest, ZeroRetriesShedsImmediately) {
  queues::RingQueue<std::uint64_t> queue(2);
  ASSERT_TRUE(queue.try_enqueue(1));
  ASSERT_TRUE(queue.try_enqueue(2));
  scenario::ShedPolicy policy{.max_retries = 0};
  scenario::ProducerStats stats;
  EXPECT_FALSE(scenario::offer_with_policy(queue, 3, policy, stats));
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

// --------------------------------------------- coordinated-omission safety

/// Deterministic virtual clock.  wait_until() honours the deadline, then
/// charges `busy_ns` of simulated producer-loop overhead -- so with
/// busy_ns much larger than the inter-arrival gap, the producer falls
/// further behind schedule with every op, exactly the regime where a
/// submit-time stamp would hide the queueing delay.
struct FakeClock {
  std::int64_t t = 0;
  std::int64_t busy_ns = 0;
  [[nodiscard]] std::int64_t now() const noexcept { return t; }
  void wait_until(std::int64_t deadline_ns) noexcept {
    if (t < deadline_ns) t = deadline_ns;
    t += busy_ns;
  }
};

TEST(ScenarioCoordinatedOmissionTest, StampIsScheduledArrivalNotSubmit) {
  // Arrivals every 1 us; the driver burns 10 us per op.  By op i the
  // submit happens ~i*9 us after the scheduled arrival.
  const std::vector<std::uint64_t> offsets{1'000, 2'000, 3'000, 4'000,
                                           5'000};
  const std::int64_t t0 = 1'000'000;

  queues::MsQueue<std::uint64_t> queue(64);
  FakeClock clock;
  clock.busy_ns = 10'000;
  scenario::ShedPolicy policy;
  const auto stats =
      scenario::run_producer(queue, offsets, t0, policy, clock);

  EXPECT_EQ(stats.offered, offsets.size());
  EXPECT_EQ(stats.enqueued, offsets.size());
  EXPECT_EQ(stats.shed, 0u);

  // The driver fell behind: every op after the first was submitted late,
  // and the recorded lag is the LAST op's (monotonically growing) one:
  // submit_i = t0 + offsets[0] + (i+1)*busy, deadline_i = t0 + offsets[i].
  const std::uint64_t expected_last_lag = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(offsets[0]) +
      static_cast<std::int64_t>(offsets.size()) * clock.busy_ns -
      static_cast<std::int64_t>(offsets.back()));
  EXPECT_EQ(stats.max_lag_ns, expected_last_lag);
  EXPECT_GT(stats.max_lag_ns, 0u);

  // THE coordinated-omission assertion: the dequeued stamps are the
  // scheduled arrivals t0 + offset -- not the (late) submit times.
  for (const std::uint64_t offset : offsets) {
    std::uint64_t stamp = 0;
    ASSERT_TRUE(queue.try_dequeue(stamp));
    EXPECT_EQ(stamp, static_cast<std::uint64_t>(t0) + offset);
  }
  std::uint64_t leftover = 0;
  EXPECT_FALSE(queue.try_dequeue(leftover));

  // A consumer sampling sojourn at clock.now() therefore charges the op
  // the full scheduled-arrival -> dequeue interval, INCLUDING the time it
  // sat behind the slow producer (>= the driver's accumulated lag), which
  // a submit-time stamp would have silently discarded.
  const std::int64_t last_stamp =
      t0 + static_cast<std::int64_t>(offsets.back());
  EXPECT_GE(clock.now() - last_stamp,
            static_cast<std::int64_t>(expected_last_lag));
}

TEST(ScenarioCoordinatedOmissionTest, OnTimeDriverStampsMatchToo) {
  // With zero overhead the driver is exactly on time: stamps still equal
  // the scheduled arrivals and no lag is recorded.
  const std::vector<std::uint64_t> offsets{10'000, 20'000, 30'000};
  queues::MsQueue<std::uint64_t> queue(16);
  FakeClock clock;  // busy_ns = 0
  scenario::ShedPolicy policy;
  const auto stats =
      scenario::run_producer(queue, offsets, std::int64_t{500}, policy,
                             clock);
  EXPECT_EQ(stats.max_lag_ns, 0u);
  for (const std::uint64_t offset : offsets) {
    std::uint64_t stamp = 0;
    ASSERT_TRUE(queue.try_dequeue(stamp));
    EXPECT_EQ(stamp, 500u + offset);
  }
}

// ------------------------------------------------------------- integration

TEST(ScenarioOpenLoopTest, SteadyRunConservesAndDrains) {
  ArrivalSpec spec;
  spec.ops = 3000;
  spec.base_rate_hz = 60'000;  // ~50 ms of paced wall time
  spec.producers = 2;
  const auto schedule = scenario::generate_arrivals(spec, 1);

  queues::MsQueue<std::uint64_t> queue(8192);
  scenario::OpenLoopConfig config;
  config.consumers = 2;
  config.watchdog_deadline = std::chrono::milliseconds(20'000);
  const auto result = scenario::run_open_loop(queue, schedule, config);

  EXPECT_EQ(result.offered, spec.ops);
  EXPECT_EQ(result.enqueued + result.shed, result.offered);
  EXPECT_EQ(result.dequeued, result.enqueued);
  EXPECT_EQ(result.shed, 0u) << "unbounded-capacity steady run shed ops";
  EXPECT_EQ(result.sojourn_ns.count(), result.dequeued);
  std::uint64_t leftover = 0;
  EXPECT_FALSE(queue.try_dequeue(leftover)) << "queue not drained";
}

TEST(ScenarioOpenLoopTest, BurstPresetEngagesBackpressureOnRing) {
  // The burst100 preset from the bench suite, scaled down: a 100x flash
  // crowd into a 32-slot ring with a 2-retry budget and a consumer that
  // tops out far below the burst rate MUST shed -- and must still
  // conserve, drain, and terminate (the acceptance criterion for the
  // scenario harness; the watchdog converts a hang into a loud abort).
  const auto presets = scenario::builtin_presets(1500);
  const scenario::ScenarioPreset* burst = nullptr;
  for (const auto& p : presets) {
    if (p.name == "burst100") burst = &p;
  }
  ASSERT_NE(burst, nullptr);

  const auto schedule = scenario::generate_arrivals(burst->arrival, 1);
  queues::RingQueue<std::uint64_t> queue(burst->capacity);
  scenario::OpenLoopConfig config;
  config.consumers = burst->consumers;
  config.shed = burst->shed;
  config.service_iters = harness::spin_iters_for_us(burst->service_us);
  config.watchdog_deadline = std::chrono::milliseconds(30'000);
  const auto result = scenario::run_open_loop(queue, schedule, config);

  EXPECT_GT(result.shed, 0u) << "flash crowd never hit the bound";
  EXPECT_EQ(result.enqueued + result.shed, result.offered);
  EXPECT_EQ(result.dequeued, result.enqueued);
  EXPECT_LE(result.shed_rate(), burst->slo.shed_rate_max)
      << "shedding engaged but unbounded";
}

}  // namespace
}  // namespace msq
