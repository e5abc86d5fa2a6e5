// Systematic (rather than randomised) schedule exploration for the
// simulator, two ways:
//
//  * explore_schedules -- bounded-preemption enumeration in the style of
//    CHESS (Musuvathi & Qadeer).  Exhaustively enumerating all
//    interleavings of even a few queue operations is infeasible (the
//    branching factor is the number of runnable processes at every step).
//    The classic observation is that most concurrency bugs -- including
//    every race the paper reports finding in earlier queues -- manifest
//    with very few preemptions.  So we enumerate exactly the schedules
//    that are round-robin except for at most `max_preemptions` forced
//    context switches, at every possible placement.  Placements whose
//    forced switch targets the process the baseline would run anyway are
//    skipped (they replay an identical schedule); skips are tallied via
//    obs::Counter::kExploreSkip.
//
//  * explore_dpor -- sleep-set dynamic partial-order reduction (Flanagan &
//    Godefroid, POPL'05).  Instead of enumerating placements blindly, each
//    executed schedule is analysed with vector clocks: only steps whose
//    accesses actually CONFLICT (same address, at least one write, no
//    happens-before order) seed new branch points, and sleep sets prune
//    re-explorations of commuting prefixes.  For terminating programs this
//    covers every Mazurkiewicz trace -- every reachable terminal state --
//    in a fraction of the schedules (tests assert the reduction ratio).
//
// Because a process's stack cannot be snapshotted, exploration is by REPLAY:
// each schedule is re-run from a fresh engine built by the caller's
// factory, which must produce a deterministic world (no jitter, no
// step_random) for DPOR's prefix replay to be sound.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.hpp"

namespace msq::sim {

struct ExploreConfig {
  std::uint32_t max_preemptions = 2;
  std::uint64_t max_steps_per_run = 200'000;  // runaway-schedule guard
  std::uint64_t max_schedules = 200'000;      // enumeration budget
};

struct ExploreResult {
  std::uint64_t schedules_run = 0;
  std::uint64_t schedules_skipped = 0;  // degenerate placements not re-run
  bool budget_exhausted = false;        // hit max_schedules before finishing
};

/// One forced context switch: before global step `at_step`, switch to
/// process `to_process` (if runnable; otherwise the preemption is a no-op
/// and the schedule degenerates into an already-covered one).
struct Preemption {
  std::uint64_t at_step;
  std::uint32_t to_process;
};

/// Run one scheduled execution: round-robin over runnable processes,
/// applying `preemptions` (sorted by at_step).  `on_step` is called after
/// every step (for invariant checking); `on_choice` (optional) before each
/// step with the step index and the process about to run.  Returns the
/// number of steps taken.
std::uint64_t run_schedule(
    Engine& engine, const std::vector<Preemption>& preemptions,
    std::uint64_t max_steps, const std::function<void()>& on_step,
    const std::function<void(std::uint64_t, std::uint32_t)>& on_choice = {});

/// Enumerate bounded-preemption schedules.  For each schedule, `factory` is
/// invoked to (re)build a fresh world -- engine plus spawned processes --
/// and must return a reference to an engine the CALLER keeps alive until
/// the next factory call; the schedule is then replayed on it.  `on_step`
/// runs after every step and `on_done` after each completed execution
/// (both may assert/throw to fail a test).
///
/// Enumeration strategy: first run the preemption-free round-robin
/// schedule recording its length L and its per-step choices; then for
/// 1..max_preemptions, place forced switches at every combination of step
/// positions (up to L) and every target process, skipping placements whose
/// first switch is a no-op against the recorded baseline (the schedule
/// would be identical to one already run).
ExploreResult explore_schedules(const ExploreConfig& config,
                                std::uint32_t process_count,
                                const std::function<Engine&()>& factory,
                                const std::function<void(Engine&)>& on_step,
                                const std::function<void(Engine&)>& on_done);

struct DporConfig {
  std::uint64_t max_steps_per_run = 20'000;  // runaway-schedule guard
  std::uint64_t max_schedules = 200'000;     // exploration budget
};

struct DporResult {
  std::uint64_t schedules_run = 0;   // complete executions handed to on_done
  std::uint64_t sleep_blocked = 0;   // branches pruned by sleep sets
  bool budget_exhausted = false;
};

/// Sleep-set dynamic partial-order reduction over the same factory/callback
/// contract as explore_schedules.  Requirements beyond it: the world must
/// be deterministic (replay rebuilds engine state from recorded choices)
/// and must terminate on every schedule (spin-heavy blocking algorithms
/// are cut off at max_steps_per_run, truncating coverage).  Processes must
/// not be crashed, frozen or stalled by the callbacks.
///
/// If the factory's engine has EngineConfig::weak_memory set, the search
/// space additionally contains one FLUSH AGENT per process that publishes
/// buffered stores (CDSChecker-style visibility nondeterminism as
/// scheduling nondeterminism); executions only complete once every buffer
/// has drained, so on_done always sees consistent memory.  All-seq_cst
/// worlds degenerate to the SC search exactly.
DporResult explore_dpor(const DporConfig& config, std::uint32_t process_count,
                        const std::function<Engine&()>& factory,
                        const std::function<void(Engine&)>& on_step,
                        const std::function<void(Engine&)>& on_done);

}  // namespace msq::sim
