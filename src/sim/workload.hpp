// Sim-side reproduction of the paper's benchmark loop (section 4) and the
// figure configurations, shared by the figure benches and the sim tests.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/engine.hpp"
#include "sim/mo_table.hpp"
#include "sim/queue_iface.hpp"

namespace msq::sim {

/// The six algorithms of the paper's evaluation, in the legend order of
/// Figure 3.
enum class Algo {
  kSingleLock,
  kMc,
  kValois,
  kTwoLock,
  kPlj,
  kMs,
};

inline constexpr Algo kAllAlgos[] = {Algo::kSingleLock, Algo::kMc,
                                     Algo::kValois,     Algo::kTwoLock,
                                     Algo::kPlj,        Algo::kMs};

[[nodiscard]] const char* algo_name(Algo algo) noexcept;

/// Instantiate the shipped queue of `algo` (sim/shipped.hpp) inside
/// `engine`'s memory.  `backoff_max` bounds the exponential backoff window
/// (0 disables backoff; ablation A2).  `mo` overrides the orders of named
/// sites (sim/mo_table.hpp) -- mutation sweeps only.
[[nodiscard]] std::unique_ptr<SimQueue> make_sim_queue(
    Algo algo, Engine& engine, std::uint32_t capacity,
    double backoff_max = 1024, const MoTable* mo = nullptr);

struct SimRunConfig {
  Algo algo = Algo::kMs;
  std::uint32_t processors = 1;
  std::uint32_t procs_per_processor = 1;  // 1 = dedicated; 2/3 = Figs 4/5
  std::uint64_t total_pairs = 100'000;
  double other_work = 600;  // cost units; ~6us at ~10ns/unit (paper)
  double quantum = 1e6;     // ~10ms at ~10ns/unit (paper's OS quantum)
  std::uint64_t seed = 1;
  double jitter = 2;        // desynchronises lock-step artefacts
  std::uint32_t capacity = 0;  // 0 = auto (processes * 4 + 64)
  double backoff_max = 1024;   // 0 disables backoff (ablation A2)
  CostParams cost{};
};

struct SimRunResult {
  double elapsed = 0;  // simulated time units
  double net = 0;      // elapsed minus one processor's other work (paper)
  std::uint64_t steps = 0;
  std::uint64_t empty_dequeues = 0;
  std::uint64_t enqueue_failures = 0;
};

/// Build an engine, spawn processors*procs_per_processor processes running
/// the enqueue/work/dequeue/work loop, run the discrete-event cost model.
[[nodiscard]] SimRunResult run_sim_workload(const SimRunConfig& config);

}  // namespace msq::sim
