// Open-loop scenario subsystem, part 5: the scenario presets.
//
// Each preset is a named, reproducible traffic pattern + the SLO it is
// judged against.  The set covers the ROADMAP item 5 checklist:
//
//   steady     stationary Poisson at a comfortable utilisation -- the
//              baseline every family should pass with zero shed
//   ramp       compressed diurnal curve (trough -> peak -> trough): does
//              the tail hold through a 9x swing in offered load?
//   burst100   flash crowd: 100x the base rate for 10% of the run into a
//              SMALL capacity.  This preset exists to drive bounded queues
//              into backpressure -- its SLO tolerates (bounded) shedding,
//              and the bench asserts shed_rate > 0 on the ring family
//   hotskew    90% of traffic from one producer: per-producer pacing with
//              a single hot arrival stream (the sharded front end's
//              re-homing story under open-loop load)
//   worksteal  skewed producers, consumer-heavy: most items arrive where
//              most consumers are NOT, so dequeue-side stealing (today:
//              ShardedQueue's sticky steal sweep; future: a
//              Sundell-Tsigas single-word-CAS deque per consumer, see
//              PAPERS.md) is what keeps the tail flat
//
// Rates are modest: total offered load stays in the tens of kHz so the
// pacing loop, producers, and consumers can share even one core without
// the scheduler becoming the experiment (docs/ALGORITHMS.md "Open-loop vs
// closed-loop" carries the caveat).  `rate_scale` scales every base rate
// for bigger hosts.  Bounds that depend on the load (burst100's shed
// ceiling) are computed from the preset's own arrival spec, never tuned
// to one host's timing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/arrival.hpp"
#include "scenario/driver.hpp"
#include "scenario/slo.hpp"

namespace msq::scenario {

/// The largest shed rate a bounded queue of `capacity` can reach when
/// shedding happens only inside the burst window: every arrival the spec
/// expects in the window, less what the queue can hold, as a share of the
/// offered ops.  It is the consumer-serves-nothing-in-the-window ceiling;
/// a faster consumer sheds less, so a rate above it means ops were shed
/// off-peak, where the offered rate is far below the service rate.
[[nodiscard]] inline double in_window_shed_ceiling(
    const ArrivalSpec& spec, std::uint32_t capacity) noexcept {
  const double window_share = spec.base_rate_hz * spec.burst_factor *
                              spec.burst_len_frac / mean_rate_hz(spec);
  const double ceiling =
      window_share - static_cast<double>(capacity) / static_cast<double>(spec.ops);
  return ceiling > 0 ? ceiling : 0;
}

struct ScenarioPreset {
  std::string name;
  ArrivalSpec arrival;
  std::uint32_t consumers = 1;
  ShedPolicy shed;
  double service_us = 0;      // consumer work per item (spin-calibrated)
  std::uint32_t capacity = 0; // in-flight bound handed to the queue ctor
  SloSpec slo;
  std::string note;
};

/// The built-in suite.  `ops` is the offered-arrival count per run (the
/// virtual horizon scales with it, so shapes are size-invariant);
/// `rate_scale` multiplies every base rate.
[[nodiscard]] inline std::vector<ScenarioPreset> builtin_presets(
    std::uint64_t ops, double rate_scale = 1.0) {
  std::vector<ScenarioPreset> presets;

  {
    ScenarioPreset p;
    p.name = "steady";
    p.arrival.ops = ops;
    p.arrival.base_rate_hz = 20'000 * rate_scale;
    p.arrival.shape = RateShape::kSteady;
    p.arrival.producers = 2;
    p.consumers = 2;
    p.service_us = 2.0;
    p.capacity = 4096;
    p.slo = {.p99_ns_max = 20'000'000,    // 20 ms
             .p999_ns_max = 60'000'000,   // 60 ms
             .shed_rate_max = 0.0};
    p.note = "stationary Poisson baseline; zero shed tolerated";
    presets.push_back(p);
  }
  {
    ScenarioPreset p;
    p.name = "ramp";
    p.arrival.ops = ops;
    p.arrival.base_rate_hz = 15'000 * rate_scale;
    p.arrival.shape = RateShape::kDiurnal;
    p.arrival.diurnal_amplitude = 0.8;  // trough 3 kHz, peak 27 kHz
    p.arrival.producers = 2;
    p.consumers = 2;
    p.service_us = 2.0;
    p.capacity = 4096;
    p.slo = {.p99_ns_max = 30'000'000,
             .p999_ns_max = 80'000'000,
             .shed_rate_max = 0.0};
    p.note = "compressed diurnal curve; tail judged across the 9x swing";
    presets.push_back(p);
  }
  {
    ScenarioPreset p;
    p.name = "burst100";
    p.arrival.ops = ops;
    p.arrival.base_rate_hz = 1'500 * rate_scale;
    p.arrival.shape = RateShape::kBurst;
    p.arrival.burst_factor = 100.0;  // 150 kHz inside the window
    p.arrival.burst_start_frac = 0.45;
    p.arrival.burst_len_frac = 0.10;
    p.arrival.producers = 2;
    p.consumers = 1;
    p.shed.max_retries = 2;  // tiny budget: shed, don't stall the pacer
    p.service_us = 25.0;     // consumer tops out ~40 kHz << burst rate
    p.capacity = 32;         // the bound the flash crowd slams into
    // Bounded shedding IS the objective; the bound is the in-window
    // ceiling (0.896 at 1,500 ops: 91.7% of arrivals fall in the window,
    // less the 32 the ring holds).
    p.slo = {.p99_ns_max = 250'000'000,
             .p999_ns_max = 600'000'000,
             .shed_rate_max = in_window_shed_ceiling(p.arrival, p.capacity)};
    p.note = "flash crowd into a small bound; backpressure must engage "
             "(shed_rate > 0 on bounded families) without deadlock";
    presets.push_back(p);
  }
  {
    ScenarioPreset p;
    p.name = "hotskew";
    p.arrival.ops = ops;
    p.arrival.base_rate_hz = 20'000 * rate_scale;
    p.arrival.shape = RateShape::kSteady;
    p.arrival.producers = 4;
    p.arrival.hot_share = 0.9;  // one producer carries 90% of the traffic
    p.consumers = 2;
    p.service_us = 2.0;
    p.capacity = 4096;
    p.slo = {.p99_ns_max = 30'000'000,
             .p999_ns_max = 80'000'000,
             .shed_rate_max = 0.0};
    p.note = "90% of arrivals from producer 0; exercises per-producer "
             "pacing and (sharded) re-homing under open-loop load";
    presets.push_back(p);
  }
  {
    ScenarioPreset p;
    p.name = "worksteal";
    p.arrival.ops = ops;
    p.arrival.base_rate_hz = 25'000 * rate_scale;
    p.arrival.shape = RateShape::kSteady;
    p.arrival.producers = 4;
    p.arrival.hot_share = 0.75;
    p.consumers = 4;
    p.service_us = 1.0;
    p.capacity = 4096;
    p.slo = {.p99_ns_max = 30'000'000,
             .p999_ns_max = 80'000'000,
             .shed_rate_max = 0.0};
    p.note = "skewed producers, consumer-heavy: dequeue-side stealing "
             "carries the load (shard_steal on shard4; grounds a future "
             "Sundell-Tsigas per-consumer deque, PAPERS.md)";
    presets.push_back(p);
  }
  return presets;
}

}  // namespace msq::scenario
