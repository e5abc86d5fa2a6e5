// Tests for the simulated-multiprocessor substrate (sim/engine, sim/memory,
// sim/cost_model, sim/task): step semantics, determinism, scheduling,
// freezing, and the coherence cost model.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace msq::sim {
namespace {

TEST(SimMemory, AllocAndAccess) {
  SimMemory mem;
  const Addr a = mem.alloc(4);
  const Addr b = mem.alloc(2);
  EXPECT_EQ(b, a + 4);
  mem.word(a + 3) = 99;
  EXPECT_EQ(mem.peek(a + 3), 99u);
  EXPECT_EQ(mem.size(), 6u);
}

TEST(CostModel, ReadMissThenHit) {
  CostModel model;
  const double miss = model.on_read(0, 10);
  const double hit = model.on_read(0, 10);
  EXPECT_GT(miss, hit);
  EXPECT_DOUBLE_EQ(hit, model.params().read_hit);
  EXPECT_DOUBLE_EQ(miss, model.params().read_miss);
}

TEST(CostModel, WriteInvalidatesOtherSharers) {
  CostModel model;
  model.on_read(0, 5);
  model.on_read(1, 5);          // both cache the line
  model.on_write(0, 5, false);  // proc 0 steals it
  const double reread = model.on_read(1, 5);
  EXPECT_DOUBLE_EQ(reread, model.params().read_miss) << "stale copy not invalidated";
}

TEST(CostModel, ExclusiveRmwIsCheap) {
  CostModel model;
  model.on_write(2, 7, true);  // first RMW: miss tariff
  const double owned = model.on_write(2, 7, true);
  EXPECT_DOUBLE_EQ(owned, model.params().rmw_owned);
}

TEST(CostModel, ContendedRmwPingPongs) {
  CostModel model;
  model.on_write(0, 3, true);
  // Each steal pays the miss tariff plus the queueing surcharge for the one
  // other processor whose copy it invalidates.
  const double expected =
      model.params().rmw_miss + model.params().contention_per_sharer;
  const double steal1 = model.on_write(1, 3, true);
  const double steal2 = model.on_write(0, 3, true);
  EXPECT_DOUBLE_EQ(steal1, expected);
  EXPECT_DOUBLE_EQ(steal2, expected);
}

TEST(CostModel, InvalidationSurchargeScalesWithSharers) {
  CostModel model;
  for (std::uint32_t p = 0; p < 5; ++p) model.on_read(p, 9);  // 5 sharers
  const double cost = model.on_write(0, 9, true);
  EXPECT_DOUBLE_EQ(cost, model.params().rmw_miss +
                             4 * model.params().contention_per_sharer);
}

// --- engine step semantics -------------------------------------------------

void incrementer(Proc& p, Addr counter, int times) {
  for (int i = 0; i < times; ++i) {
    const std::uint64_t v = p.read(counter);
    p.write(counter, v + 1);
  }
}

TEST(Engine, SingleProcessRunsToCompletion) {
  Engine engine;
  const Addr counter = engine.memory().alloc(1);
  const auto id = engine.spawn(0, [&](Proc& p) {
    return incrementer(p, counter, 10);
  });
  while (engine.step(id)) {
  }
  EXPECT_TRUE(engine.done(id));
  EXPECT_EQ(engine.memory().peek(counter), 10u);
  EXPECT_EQ(engine.total_steps(), 20u);  // one read + one write per round
}

TEST(Engine, UnsynchronisedIncrementsLoseUpdatesUnderInterleaving) {
  // The engine must actually interleave at step granularity: two processes
  // doing read-modify-write WITHOUT atomics must (with an adversarial
  // alternating schedule) lose updates.
  Engine engine;
  const Addr counter = engine.memory().alloc(1);
  const auto p0 = engine.spawn(0, [&](Proc& p) { return incrementer(p, counter, 5); });
  const auto p1 = engine.spawn(0, [&](Proc& p) { return incrementer(p, counter, 5); });
  // Strict alternation: p0 read, p1 read (same value), p0 write, p1 write...
  while (!engine.all_done()) {
    engine.step(p0);
    engine.step(p1);
  }
  EXPECT_LT(engine.memory().peek(counter), 10u) << "no interleaving happened";
}

void cas_incrementer(Proc& p, Addr counter, int times) {
  for (int i = 0; i < times; ++i) {
    for (;;) {
      const std::uint64_t v = p.read(counter);
      const std::uint64_t old = p.cas(counter, v, v + 1);
      if (old == v) break;
    }
  }
}

TEST(Engine, CasLoopSurvivesAnySchedule) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 42u, 99u}) {
    EngineConfig config;
    config.seed = seed;
    Engine engine(config);
    const Addr counter = engine.memory().alloc(1);
    for (int i = 0; i < 3; ++i) {
      engine.spawn(0, [&](Proc& p) { return cas_incrementer(p, counter, 50); });
    }
    ASSERT_TRUE(engine.run_random());
    EXPECT_EQ(engine.memory().peek(counter), 150u) << "seed " << seed;
  }
}

TEST(Engine, RandomScheduleIsDeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    EngineConfig config;
    config.seed = seed;
    Engine engine(config);
    const Addr counter = engine.memory().alloc(1);
    for (int i = 0; i < 2; ++i) {
      engine.spawn(0, [&](Proc& p) { return incrementer(p, counter, 20); });
    }
    engine.run_random();
    return engine.memory().peek(counter);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(1234), run(1234));
}

void faa_probe(Proc& p, Addr a, std::uint64_t& first,
               std::uint64_t& second) {
  first = p.faa(a, 5);
  second = p.faa(a, 5);
}

TEST(Engine, FaaReturnsOldValue) {
  Engine engine;
  const Addr a = engine.memory().alloc(1);
  std::uint64_t first = 0, second = 0;
  const auto id =
      engine.spawn(0, [&](Proc& p) { return faa_probe(p, a, first, second); });
  while (engine.step(id)) {
  }
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 5u);
  EXPECT_EQ(engine.memory().peek(a), 10u);
}

TEST(Engine, FreezeExcludesProcessFromRandomScheduling) {
  Engine engine;
  const Addr counter = engine.memory().alloc(1);
  const auto frozen = engine.spawn(0, [&](Proc& p) { return incrementer(p, counter, 1000); });
  const auto free_proc = engine.spawn(0, [&](Proc& p) { return incrementer(p, counter, 5); });
  engine.freeze(frozen);
  while (engine.step_random()) {
  }
  EXPECT_TRUE(engine.done(free_proc));
  EXPECT_FALSE(engine.done(frozen));
  engine.unfreeze(frozen);
  ASSERT_TRUE(engine.run_random());
  EXPECT_TRUE(engine.done(frozen));
}

void labelled_writer(Proc& p, Addr a) {
  p.at("BEFORE_WRITE");
  p.write(a, 1);
  p.at("AFTER_WRITE");
  p.write(a, 2);
}

TEST(Engine, FreezeAtLabelStopsBeforeLabelledOperation) {
  Engine engine;
  const Addr a = engine.memory().alloc(1);
  const auto id = engine.spawn(0, [&](Proc& p) { return labelled_writer(p, a); });
  engine.freeze_at_label(id, "AFTER_WRITE");
  while (engine.step_random()) {
  }
  // Frozen after the first write but BEFORE the second.
  EXPECT_FALSE(engine.done(id));
  EXPECT_EQ(engine.memory().peek(a), 1u);
  engine.freeze_at_label(id, nullptr);
  engine.unfreeze(id);
  ASSERT_TRUE(engine.run_random());
  EXPECT_EQ(engine.memory().peek(a), 2u);
}

// --- cost-model / discrete-event scheduling --------------------------------

void worker_with_work(Proc& p, Addr own_word, int rounds, double work) {
  for (int i = 0; i < rounds; ++i) {
    p.write(own_word, static_cast<std::uint64_t>(i));
    p.work(work);
  }
}

TEST(Engine, CostModelParallelismOverlapsIndependentWork) {
  // Two processors touching disjoint words: elapsed ~ per-processor cost,
  // not the sum (that is what "parallel" means in the model).
  auto elapsed_with_processors = [](std::uint32_t processors) {
    EngineConfig config;
    config.processors = processors;
    Engine engine(config);
    const Addr words = engine.memory().alloc(2);
    for (std::uint32_t i = 0; i < 2; ++i) {
      engine.spawn(i % processors, [&, i](Proc& p) {
        return worker_with_work(p, words + i, 100, 50);
      });
    }
    return engine.run_cost_model();
  };
  const double serial = elapsed_with_processors(1);
  const double parallel = elapsed_with_processors(2);
  EXPECT_GT(serial, parallel * 1.8) << "no overlap from second processor";
}

TEST(Engine, QuantumPreemptionInterleavesCoScheduledProcesses) {
  // Two processes on ONE processor with a small quantum: both must finish,
  // and elapsed is the sum of their demands (plus switches).
  EngineConfig config;
  config.processors = 1;
  config.quantum = 200;
  Engine engine(config);
  const Addr words = engine.memory().alloc(2);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ids.push_back(engine.spawn(0, [&, i](Proc& p) {
      return worker_with_work(p, words + i, 50, 30);
    }));
  }
  const double elapsed = engine.run_cost_model();
  EXPECT_TRUE(engine.all_done());
  EXPECT_GT(elapsed, 2 * 50 * 30.0) << "multiplexing cannot beat total demand";
}

TEST(Engine, JitterPreservesCompletionAndDeterminism) {
  auto run = [](std::uint64_t seed) {
    EngineConfig config;
    config.jitter = 3;
    config.seed = seed;
    Engine engine(config);
    const Addr a = engine.memory().alloc(1);
    engine.spawn(0, [&](Proc& p) { return incrementer(p, a, 20); });
    return engine.run_cost_model();
  };
  EXPECT_DOUBLE_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // different seeds: different jitter
}

}  // namespace
}  // namespace msq::sim
