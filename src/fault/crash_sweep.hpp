// Crash-step sweep over the simulator: the paper's robustness claim made
// mechanical.
//
// "If a process is halted or delayed ... non-blocking algorithms guarantee
//  that some process will complete an operation in a finite number of
//  steps" (section 1).  The sweep tests exactly that hypothesis at EVERY
//  reachable point of one operation: replay a victim performing a single
//  enqueue (or dequeue), crash-stop it after k = 0, 1, 2, ... shared-memory
//  steps (Engine::crash), then let fresh survivor processes hammer the
//  half-updated queue and record what they manage to complete.
//
// For the non-blocking algorithms (MS, PLJ, Valois) every crash point must
// leave the survivors able to complete unbounded operations and every
// structural invariant intact.  For the blocking algorithms (single-lock,
// two-lock, MC) the sweep instead MAPS the wedge window: the contiguous
// band of crash steps -- exactly the lock-held / mid-link region -- where
// survivors complete nothing, ever.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"

namespace msq::fault {

enum class VictimOp { kEnqueue, kDequeue };

struct CrashPoint {
  std::uint64_t crash_step = 0;       // victim crashed after this many steps
  const char* victim_label = "";      // pseudo-code line it died at
  std::uint64_t survivor_enqueues = 0;
  std::uint64_t survivor_dequeues = 0;  // successful only
  bool victim_completed = false;  // op finished before step k was reached
  bool invariants_ok = true;
  std::string invariant_error;
};

struct CrashSweep {
  std::vector<CrashPoint> points;     // one per crash step 0..op_steps-1
  std::uint64_t op_steps = 0;         // victim op length, uncrashed
};

struct CrashSweepConfig {
  std::uint32_t capacity = 64;
  std::uint32_t preload = 8;          // items enqueued before the victim runs
  std::uint32_t survivors = 2;
  std::uint64_t survivor_steps = 12'000;
  std::uint64_t seed = 7;
};

namespace detail {

struct SurvivorCounts {
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
};

inline void survivor_pairs(sim::Proc& p, sim::SimQueue& queue,
                           std::uint32_t producer,
                           SurvivorCounts& counts) {
  for (std::uint64_t i = 0;; ++i) {
    const bool ok =
        queue.enqueue(p, (std::uint64_t{producer} << 40) | i);
    if (ok) ++counts.enqueues;
    const std::uint64_t got = queue.dequeue(p);
    if (got != sim::kEmpty) ++counts.dequeues;
  }
}

inline void victim_once(sim::Proc& p, sim::SimQueue& queue,
                        VictimOp op) {
  if (op == VictimOp::kEnqueue) {
    queue.enqueue(p, 0xdeadull);
  } else {
    queue.dequeue(p);
  }
}

inline void preload_n(sim::Proc& p, sim::SimQueue& queue,
                      std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    queue.enqueue(p, 0x9000ull + i);
  }
}

}  // namespace detail

/// Run one crash point: fresh engine + queue, preload, run the victim for
/// `crash_step` steps, crash it, then let survivors run.
inline CrashPoint run_crash_point(sim::Algo algo, VictimOp op,
                                  std::uint64_t crash_step,
                                  const CrashSweepConfig& config) {
  // Declared before the engine so unfinished survivor processes (unwound
  // by ~Engine) never outlive the counters they reference.
  detail::SurvivorCounts counts;

  sim::EngineConfig engine_config;
  engine_config.seed = config.seed;
  sim::Engine engine(engine_config);
  auto queue = sim::make_sim_queue(algo, engine, config.capacity);

  CrashPoint result;
  result.crash_step = crash_step;

  {  // Preload runs to completion (holds nothing afterwards).
    const auto id = engine.spawn(0, [&](sim::Proc& p) {
      return detail::preload_n(p, *queue, config.preload);
    });
    while (engine.step(id)) {
    }
  }

  const auto victim = engine.spawn(0, [&](sim::Proc& p) {
    return detail::victim_once(p, *queue, op);
  });
  for (std::uint64_t k = 0; k < crash_step && !engine.done(victim); ++k) {
    engine.step(victim);
  }
  if (engine.done(victim)) {
    result.victim_completed = true;  // op was shorter than crash_step
    return result;
  }
  engine.crash(victim);
  result.victim_label = engine.label(victim);

  for (std::uint32_t s = 0; s < config.survivors; ++s) {
    engine.spawn(0, [&, s](sim::Proc& p) {
      return detail::survivor_pairs(p, *queue, s + 1, counts);
    });
  }
  for (std::uint64_t i = 0; i < config.survivor_steps; ++i) {
    if (!engine.step_random()) break;
  }
  result.survivor_enqueues = counts.enqueues;
  result.survivor_dequeues = counts.dequeues;

  try {
    queue->check_invariants();
  } catch (const std::exception& e) {
    result.invariants_ok = false;
    result.invariant_error = e.what();
  }
  return result;
}

/// Measure the victim's uncrashed op length (same preload, no survivors).
inline std::uint64_t measure_op_steps(sim::Algo algo, VictimOp op,
                                      const CrashSweepConfig& config) {
  sim::EngineConfig engine_config;
  engine_config.seed = config.seed;
  sim::Engine engine(engine_config);
  auto queue = sim::make_sim_queue(algo, engine, config.capacity);
  {
    const auto id = engine.spawn(0, [&](sim::Proc& p) {
      return detail::preload_n(p, *queue, config.preload);
    });
    while (engine.step(id)) {
    }
  }
  const auto victim = engine.spawn(0, [&](sim::Proc& p) {
    return detail::victim_once(p, *queue, op);
  });
  std::uint64_t steps = 0;
  while (engine.step(victim)) ++steps;
  return steps;
}

/// The full sweep: crash after every k in [0, op_steps).
inline CrashSweep crash_sweep(sim::Algo algo, VictimOp op,
                              const CrashSweepConfig& config = {}) {
  CrashSweep sweep;
  sweep.op_steps = measure_op_steps(algo, op, config);
  sweep.points.reserve(sweep.op_steps);
  for (std::uint64_t k = 0; k < sweep.op_steps; ++k) {
    sweep.points.push_back(run_crash_point(algo, op, k, config));
  }
  return sweep;
}

}  // namespace msq::fault
