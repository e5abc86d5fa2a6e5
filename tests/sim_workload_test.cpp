// Tests for the sim-side workload runner (sim/workload.*) and the
// schedule-replay primitive (sim/explore.hpp run_schedule).
#include <gtest/gtest.h>

#include <memory>

#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/workload.hpp"

namespace msq::sim {
namespace {

TEST(SimWorkloadConfig, NetSubtractsOtherWork) {
  // One processor, no contention: the net time must be far below elapsed
  // (almost everything is "other work"), and positive (queue ops cost).
  SimRunConfig config;
  config.algo = Algo::kMs;
  config.processors = 1;
  config.total_pairs = 2'000;
  config.other_work = 600;
  const SimRunResult r = run_sim_workload(config);
  EXPECT_GT(r.net, 0.0);
  EXPECT_LT(r.net, r.elapsed * 0.5)
      << "net should exclude the dominating other-work time";
}

TEST(SimWorkloadConfig, PairsSplitAcrossProcessesExactly) {
  // total_pairs not divisible by the process count must still run: the
  // floor/ceil split covers every pair (observable through empty-dequeue
  // accounting never exceeding totals and the run completing).
  SimRunConfig config;
  config.algo = Algo::kTwoLock;
  config.processors = 5;
  config.total_pairs = 1'003;  // 5 does not divide this
  const SimRunResult r = run_sim_workload(config);
  EXPECT_GT(r.steps, 1'003u * 4);  // several accesses per op at minimum
  EXPECT_LE(r.empty_dequeues, 1'003u);
}

TEST(SimWorkloadConfig, ZeroEnqueueFailuresWithAutoCapacity) {
  for (const Algo algo : kAllAlgos) {
    SimRunConfig config;
    config.algo = algo;
    config.processors = 4;
    config.procs_per_processor = 2;
    config.total_pairs = 1'000;
    const SimRunResult r = run_sim_workload(config);
    if (algo == Algo::kValois) {
      // Valois can transiently pin dequeued chains (the whole point of
      // experiment A4), so rare allocation failures are legitimate.
      EXPECT_LT(r.enqueue_failures, 100u) << algo_name(algo);
    } else {
      EXPECT_EQ(r.enqueue_failures, 0u)
          << algo_name(algo) << ": auto capacity must cover peak occupancy";
    }
  }
}

TEST(SimWorkloadConfig, MoreOtherWorkMeansMoreElapsedButSimilarNet) {
  auto run = [](double other_work) {
    SimRunConfig config;
    config.algo = Algo::kMs;
    config.processors = 2;
    config.total_pairs = 2'000;
    config.other_work = other_work;
    return run_sim_workload(config);
  };
  const SimRunResult small = run(100);
  const SimRunResult big = run(1'000);
  EXPECT_GT(big.elapsed, small.elapsed * 2);
  // Net isolates queue cost; more think time REDUCES contention, so net
  // should not grow with other_work (allow generous slack for scheduling
  // noise).
  EXPECT_LT(big.net, small.net * 1.5);
}

// --- run_schedule ------------------------------------------------------------

void write_n(Proc& p, Addr base, int n) {
  for (int i = 0; i < n; ++i) {
    p.write(base + static_cast<Addr>(i), 1 + p.id());
  }
}

TEST(RunSchedule, RoundRobinWithoutPreemptionsRunsFirstProcessFirst) {
  Engine engine;
  const Addr words = engine.memory().alloc(8);
  engine.spawn(0, [&](Proc& p) { return write_n(p, words, 4); });
  engine.spawn(0, [&](Proc& p) { return write_n(p, words + 4, 4); });
  // run_schedule counts RESUMES: each process needs one resume per memory
  // access plus one final resume in which the process body returns.
  const std::uint64_t steps = run_schedule(engine, {}, 1'000, nullptr);
  EXPECT_EQ(steps, 10u);
  EXPECT_TRUE(engine.all_done());
  // Non-preemptive round-robin runs process 0 to completion first; all
  // eight words end up written.
  for (Addr a = words; a < words + 8; ++a) EXPECT_NE(engine.memory().peek(a), 0u);
}

void two_writes(Proc& p, Addr a, Addr b) {
  p.write(a, p.id() + 1);
  p.write(b, p.id() + 1);
}

TEST(RunSchedule, ForcedPreemptionSwitchesProcesses) {
  Engine engine;
  const Addr words = engine.memory().alloc(2);
  const Addr trace = engine.memory().alloc(4);
  engine.spawn(0, [&](Proc& p) { return two_writes(p, words + 0, trace + 0); });
  engine.spawn(0, [&](Proc& p) { return two_writes(p, words + 1, trace + 2); });
  // Preempt to process 1 before the very first step.
  const std::uint64_t steps =
      run_schedule(engine, {{0, 1}}, 1'000, nullptr);
  EXPECT_TRUE(engine.all_done());
  EXPECT_EQ(steps, 6u);  // 2 writes + 1 completion resume per process
  EXPECT_EQ(engine.memory().peek(words + 1), 2u);  // process 1 ran
}

void spin_on_flag(Proc& p, Addr flag) {
  for (;;) {
    const std::uint64_t v = p.read(flag);
    if (v != 0) return;
    p.work(1);
  }
}

TEST(RunSchedule, MaxStepsBoundsBlockedSchedules) {
  Engine engine;
  const Addr flag = engine.memory().alloc(1);
  engine.spawn(0, [&](Proc& p) { return spin_on_flag(p, flag); });
  const std::uint64_t steps = run_schedule(engine, {}, 500, nullptr);
  EXPECT_EQ(steps, 500u) << "blocked schedule must stop at the bound";
  EXPECT_FALSE(engine.all_done());
}

TEST(RunSchedule, OnStepCallbackFiresEveryStep) {
  Engine engine;
  const Addr w = engine.memory().alloc(4);
  engine.spawn(0, [&](Proc& p) { return write_n(p, w, 4); });
  std::uint64_t calls = 0;
  run_schedule(engine, {}, 1'000, [&] { ++calls; });
  EXPECT_EQ(calls, 5u);  // one per resume (4 writes + completion)
}

}  // namespace
}  // namespace msq::sim
