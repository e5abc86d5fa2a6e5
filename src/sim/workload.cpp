#include "sim/workload.hpp"

#include <atomic>

#include "check/invariants.hpp"
#include "sim/shipped.hpp"

namespace msq::sim {

const char* algo_name(Algo algo) noexcept {
  switch (algo) {
    case Algo::kSingleLock:
      return "single-lock";
    case Algo::kMc:
      return "MC";
    case Algo::kValois:
      return "Valois";
    case Algo::kTwoLock:
      return "two-lock";
    case Algo::kPlj:
      return "PLJ";
    case Algo::kMs:
      return "MS";
  }
  return "?";
}

std::unique_ptr<SimQueue> make_sim_queue(Algo algo, Engine& engine,
                                         std::uint32_t capacity,
                                         double backoff_max, const MoTable* mo) {
  switch (algo) {
    case Algo::kSingleLock:
      return std::make_unique<ShippedSingleLockQueue>(engine, capacity,
                                                      backoff_max, mo);
    case Algo::kMc:
      return std::make_unique<ShippedMcQueue>(engine, capacity, backoff_max,
                                              mo);
    case Algo::kValois:
      return std::make_unique<ShippedValoisQueue>(engine, capacity,
                                                  backoff_max, mo);
    case Algo::kTwoLock:
      return std::make_unique<ShippedTwoLockQueue>(engine, capacity,
                                                   backoff_max, mo);
    case Algo::kPlj:
      return std::make_unique<ShippedPljQueue>(engine, capacity, backoff_max,
                                               mo);
    case Algo::kMs:
      return std::make_unique<ShippedMsQueue>(engine, capacity, backoff_max,
                                              mo);
  }
  return nullptr;
}

namespace {

struct Counters {
  std::uint64_t empty_dequeues = 0;
  std::uint64_t enqueue_failures = 0;
};

/// One virtual process's share of the paper's loop: "enqueue an item, do
/// other work, dequeue an item, do other work, repeat".
void paper_loop(Proc& p, SimQueue& queue, std::uint64_t pairs,
                double other_work, std::uint32_t producer_id,
                Counters& counters) {
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t value = check::encode_value(producer_id, i);
    for (;;) {
      if (queue.enqueue(p, value)) break;
      ++counters.enqueue_failures;  // pool exhausted: yield a little
      p.work(64);
    }
    p.work(other_work);
    const std::uint64_t got = queue.dequeue(p);
    if (got == kEmpty) ++counters.empty_dequeues;
    p.work(other_work);
  }
}

}  // namespace

SimRunResult run_sim_workload(const SimRunConfig& config) {
  EngineConfig ec;
  ec.processors = config.processors;
  ec.quantum = config.quantum;
  ec.seed = config.seed;
  ec.jitter = config.jitter;
  ec.cost = config.cost;
  Engine engine(ec);

  const std::uint32_t processes =
      config.processors * config.procs_per_processor;
  const std::uint32_t capacity =
      config.capacity != 0 ? config.capacity : processes * 4 + 64;
  auto queue =
      make_sim_queue(config.algo, engine, capacity, config.backoff_max);

  Counters counters;
  for (std::uint32_t i = 0; i < processes; ++i) {
    // "each process executes this loop floor(N/p) or ceil(N/p) times"
    const std::uint64_t pairs = config.total_pairs / processes +
                                (i < config.total_pairs % processes ? 1 : 0);
    engine.spawn(i % config.processors, [&, i, pairs](Proc& p) {
      return paper_loop(p, *queue, pairs, config.other_work, i, counters);
    });
  }

  SimRunResult result;
  result.elapsed = engine.run_cost_model();
  result.steps = engine.total_steps();
  result.empty_dequeues = counters.empty_dequeues;
  result.enqueue_failures = counters.enqueue_failures;

  // Paper: "we subtracted the time required for one processor to complete
  // the 'other work' from the total time".  One processor executes
  // total_pairs/processors pairs, each with two other-work episodes.
  const double pairs_per_processor = static_cast<double>(config.total_pairs) /
                                     static_cast<double>(config.processors);
  result.net = result.elapsed -
               pairs_per_processor * 2 * config.other_work *
                   config.cost.work_unit;
  return result;
}

}  // namespace msq::sim
