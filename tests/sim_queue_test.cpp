// Schedule-exploration tests of the six simulated algorithms: randomised
// interleavings with per-step safety invariants (paper section 3.1) and
// exact linearizability checking of small sim histories (section 3.2).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "check/history.hpp"
#include "check/invariants.hpp"
#include "check/lin_check.hpp"
#include "sim/engine.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"

namespace msq::sim {
namespace {

/// Worker recording a history with the engine's step counter as the clock.
void logged_pairs(Proc& p, SimQueue& queue, std::uint32_t producer,
                  std::uint64_t pairs, check::ThreadLog& log) {
  Engine& engine = p.engine();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t value = check::encode_value(producer, i);
    auto inv = static_cast<std::int64_t>(engine.total_steps());
    for (;;) {
      const bool ok = queue.enqueue(p, value);
      if (ok) break;
    }
    log.record(check::OpKind::kEnqueue, value, inv,
               static_cast<std::int64_t>(engine.total_steps()));
    inv = static_cast<std::int64_t>(engine.total_steps());
    const std::uint64_t out = queue.dequeue(p);
    log.record(out == kEmpty ? check::OpKind::kDequeueEmpty
                             : check::OpKind::kDequeue,
               out, inv, static_cast<std::int64_t>(engine.total_steps()));
  }
}

class SimQueueAlgoTest : public ::testing::TestWithParam<Algo> {};

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SimQueueAlgoTest,
                         ::testing::ValuesIn(kAllAlgos),
                         [](const auto& info) {
                           switch (info.param) {
                             case Algo::kSingleLock: return "SingleLock";
                             case Algo::kMc: return "McRing";
                             case Algo::kValois: return "Valois";
                             case Algo::kTwoLock: return "TwoLock";
                             case Algo::kPlj: return "Plj";
                             case Algo::kMs: return "Ms";
                           }
                           return "Unknown";
                         });

TEST_P(SimQueueAlgoTest, InvariantsHoldAfterEveryStepAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    EngineConfig config;
    config.seed = seed;
    Engine engine(config);
    auto queue = make_sim_queue(GetParam(), engine, 16);
    std::vector<check::ThreadLog> logs;
    logs.reserve(3);
    for (std::uint32_t t = 0; t < 3; ++t) logs.emplace_back(t);
    for (std::uint32_t t = 0; t < 3; ++t) {
      engine.spawn(0, [&, t](Proc& p) {
        return logged_pairs(p, *queue, t, 3, logs[t]);
      });
    }
    std::uint64_t guard = 0;
    while (engine.step_random()) {
      ASSERT_NO_THROW(queue->check_invariants())
          << algo_name(GetParam()) << " seed " << seed << " step " << guard;
      ASSERT_LT(++guard, 2'000'000u) << "schedule did not terminate";
    }
    ASSERT_TRUE(engine.all_done());

    // Exact linearizability of the recorded history (<= 18 events).
    const auto history = check::merge_logs(logs);
    const auto result = check::check_linearizable_exact(history);
    ASSERT_TRUE(result.ok)
        << algo_name(GetParam()) << " seed " << seed << ": " << result.diagnosis;
  }
}

TEST_P(SimQueueAlgoTest, LargerRandomRunsConserveValues) {
  EngineConfig config;
  config.seed = 99;
  Engine engine(config);
  auto queue = make_sim_queue(GetParam(), engine, 64);
  constexpr std::uint32_t kProcs = 4;
  constexpr std::uint64_t kPairs = 200;
  std::vector<check::ThreadLog> logs;
  for (std::uint32_t t = 0; t < kProcs; ++t) logs.emplace_back(t);
  for (std::uint32_t t = 0; t < kProcs; ++t) {
    engine.spawn(0, [&, t](Proc& p) {
      return logged_pairs(p, *queue, t, kPairs, logs[t]);
    });
  }
  ASSERT_TRUE(engine.run_random());
  const auto history = check::merge_logs(logs);
  const auto conservation = check::check_conservation(history);
  EXPECT_TRUE(conservation.ok) << conservation.diagnosis;
  const auto order = check::check_fifo_order(history);
  EXPECT_TRUE(order.ok) << order.diagnosis;
}

TEST_P(SimQueueAlgoTest, SequentialFifoThroughTheSimEngine) {
  Engine engine;
  auto queue = make_sim_queue(GetParam(), engine, 8);
  check::ThreadLog log(0);
  engine.spawn(0, [&](Proc& p) { return logged_pairs(p, *queue, 0, 6, log); });
  ASSERT_TRUE(engine.run_random());
  // Single process: every dequeue must return the value just enqueued.
  const auto& events = log.events();
  ASSERT_EQ(events.size(), 12u);
  for (std::size_t i = 0; i < events.size(); i += 2) {
    EXPECT_EQ(events[i].kind, check::OpKind::kEnqueue);
    EXPECT_EQ(events[i + 1].kind, check::OpKind::kDequeue);
    EXPECT_EQ(events[i].value, events[i + 1].value);
  }
}

TEST_P(SimQueueAlgoTest, CostModelRunCompletesAndCharges) {
  SimRunConfig config;
  config.algo = GetParam();
  config.processors = 4;
  config.total_pairs = 400;
  config.other_work = 100;
  const SimRunResult result = run_sim_workload(config);
  EXPECT_GT(result.elapsed, 0.0);
  EXPECT_GT(result.steps, 0u);
  // Elapsed must at least cover one processor's other work.
  EXPECT_GT(result.elapsed, 100.0 * 2 * 100);
}

TEST_P(SimQueueAlgoTest, MultiprogrammedCostRunCompletes) {
  SimRunConfig config;
  config.algo = GetParam();
  config.processors = 2;
  config.procs_per_processor = 3;
  config.total_pairs = 300;
  config.other_work = 100;
  config.quantum = 5'000;
  const SimRunResult result = run_sim_workload(config);
  EXPECT_GT(result.elapsed, 0.0);
}

TEST(SimWorkload, DeterministicGivenSeed) {
  SimRunConfig config;
  config.algo = Algo::kMs;
  config.processors = 3;
  config.total_pairs = 300;
  const double a = run_sim_workload(config).elapsed;
  const double b = run_sim_workload(config).elapsed;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(SimWorkload, AlgoNamesAreDistinct) {
  std::vector<std::string> names;
  for (const Algo algo : kAllAlgos) names.emplace_back(algo_name(algo));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace msq::sim
