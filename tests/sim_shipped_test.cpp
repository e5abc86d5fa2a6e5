// The simulator checks the code that ships: queues::MsQueue, PljQueue and
// mem::FreeList run over sim/shipped.hpp's words, and a defect put back
// into them through a test-only hook is found by exploration.  Also pins
// down process teardown: a process abandoned mid-operation releases what
// its stack holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/shipped.hpp"

namespace msq::sim {
namespace {

// --- the tag-reset hook -------------------------------------------------------
//
// Two producers enqueue one item each into a pool with no spare node; a
// consumer dequeues twice.  Without monotone link counts the classic
// stale-link race appears: producer A reads the dummy's null link and
// stalls before E9; B links behind the dummy and C dequeues, freeing the
// dummy into an empty free list, which writes the same (null, 0) link A
// read.  A's E9 CAS then succeeds on a FREE node, and A's item is lost.

struct HookWorld {
  Engine engine;
  ShippedMsQueue queue;
  std::vector<std::uint64_t> dequeued;
  int enqueued = 0;

  explicit HookWorld(bool reset_tags)
      : engine(EngineConfig{}), queue(engine, /*capacity=*/2,
                                      /*backoff_max=*/0) {
    queue.binding().reset_link_tags = reset_tags;
    for (std::uint64_t v : {1u, 2u}) {
      engine.spawn(0, [this, v](Proc& p) {
        if (queue.enqueue(p, v)) ++enqueued;
      });
    }
    engine.spawn(0, [this](Proc& p) { drain(p, 2); });
  }

  void drain(Proc& p, int attempts) {
    for (int a = 0; a < attempts; ++a) {
      const std::uint64_t v = queue.dequeue(p);
      if (v != kEmpty) dequeued.push_back(v);
    }
  }

  /// At a terminal state: drain what is left, then every item enqueued
  /// must have been dequeued exactly once.
  [[nodiscard]] std::string verdict() {
    const std::uint32_t drainer =
        engine.spawn(0, [this](Proc& p) { drain(p, 4); });
    for (int i = 0; i < 10'000 && engine.step(drainer); ++i) {
    }
    std::vector<std::uint64_t> got = dequeued;
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      return "an item was dequeued twice";
    }
    if (static_cast<int>(got.size()) != enqueued) {
      return "an acknowledged item was lost";
    }
    return "";
  }
};

/// Explores every schedule of the world; returns the first violation.
std::string explore_hook_world(bool reset_tags) {
  std::unique_ptr<HookWorld> world;
  std::string violation;
  DporConfig config;
  config.max_steps_per_run = 2'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/3,
      [&]() -> Engine& {
        world = std::make_unique<HookWorld>(reset_tags);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        if (!violation.empty() || !engine.all_done()) return;
        violation = world->verdict();
      });
  EXPECT_FALSE(result.budget_exhausted);
  return violation;
}

TEST(ShippedMsQueue, ExplorationIsCleanWithMonotoneLinkCounts) {
  EXPECT_EQ(explore_hook_world(/*reset_tags=*/false), "");
}

TEST(ShippedMsQueue, TagResetHookLosesAnItemUnderExploration) {
  EXPECT_EQ(explore_hook_world(/*reset_tags=*/true),
            "an acknowledged item was lost");
}

// --- the PLJ link-count reset ------------------------------------------------
//
// A node of PLJ that an enqueuer has allocated but not yet linked must not
// match a stale link CAS.  Before exploration: X (item 10) is enqueued;
// A, enqueuing 1, takes its snapshot of X as Tail and stops at its link
// CAS; P links 20 behind X.  Explored: A's link CAS, then A enqueues 2;
// Q dequeues twice -- freeing the dummy, then X -- and enqueues 30, which
// reallocates X.  If Q's null link reset X's count, A's CAS lands on X
// while Q has not linked it: A's 1 trails a node outside the queue and
// A's own later 2 is dequeued first.

struct PljHookWorld {
  Engine engine;
  ShippedPljQueue queue;
  std::vector<std::uint64_t> dequeued;  // in real-time order
  int enqueued = 0;

  explicit PljHookWorld(bool reset_tags)
      : engine(EngineConfig{}), queue(engine, /*capacity=*/5,
                                      /*backoff_max=*/0) {
    queue.binding().reset_link_tags = reset_tags;
    const std::uint32_t x =
        engine.spawn(0, [this](Proc& p) { enqueue(p, 10); });
    while (engine.step(x)) {
    }
    const std::uint32_t a = engine.spawn(0, [this](Proc& p) {
      enqueue(p, 1);
      enqueue(p, 2);
    });
    engine.freeze_at_label(a, "plj.link_cas");
    while (std::string(engine.label(a)) != "plj.link_cas" && engine.step(a)) {
    }
    engine.freeze_at_label(a, nullptr);
    engine.unfreeze(a);
    const std::uint32_t linker =
        engine.spawn(0, [this](Proc& p) { enqueue(p, 20); });  // P
    while (engine.step(linker)) {
    }
    engine.spawn(0, [this](Proc& p) {  // Q
      drain(p, 2);
      enqueue(p, 30);
    });
  }

  void enqueue(Proc& p, std::uint64_t v) {
    if (queue.enqueue(p, v)) ++enqueued;
  }

  void drain(Proc& p, int attempts) {
    for (int a = 0; a < attempts; ++a) {
      const std::uint64_t v = queue.dequeue(p);
      if (v != kEmpty) dequeued.push_back(v);
    }
  }

  /// At a terminal state: drain what is left; every item must come out
  /// once, and A's 1 before A's 2.
  [[nodiscard]] std::string verdict() {
    const std::uint32_t drainer =
        engine.spawn(0, [this](Proc& p) { drain(p, 8); });
    for (int i = 0; i < 10'000 && engine.step(drainer); ++i) {
    }
    std::vector<std::uint64_t> got = dequeued;
    const auto one = std::find(got.begin(), got.end(), 1u);
    const auto two = std::find(got.begin(), got.end(), 2u);
    if (one != got.end() && two != got.end() && two < one) {
      return "a later enqueue overtook an acknowledged item";
    }
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      return "an item was dequeued twice";
    }
    if (static_cast<int>(got.size()) != enqueued) {
      return "an acknowledged item was lost";
    }
    return "";
  }
};

std::string explore_plj_hook_world(bool reset_tags) {
  std::unique_ptr<PljHookWorld> world;
  std::string violation;
  DporConfig config;
  config.max_steps_per_run = 4'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/4,
      [&]() -> Engine& {
        world = std::make_unique<PljHookWorld>(reset_tags);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        if (!violation.empty() || !engine.all_done()) return;
        violation = world->verdict();
      });
  EXPECT_FALSE(result.budget_exhausted);
  return violation;
}

TEST(ShippedPljQueue, ExplorationIsCleanWithMonotoneLinkCounts) {
  EXPECT_EQ(explore_plj_hook_world(/*reset_tags=*/false), "");
}

TEST(ShippedPljQueue, TagResetHookLetsALaterEnqueueOvertake) {
  EXPECT_EQ(explore_plj_hook_world(/*reset_tags=*/true),
            "a later enqueue overtook an acknowledged item");
}

// --- teardown -------------------------------------------------------------

/// Counts its own destruction: a stand-in for whatever a process's stack
/// owns (buffers, strings, handles).
struct Held {
  int* released;
  std::unique_ptr<std::uint64_t[]> buffer{new std::uint64_t[64]};
  explicit Held(int* r) : released(r) {}
  Held(const Held&) = delete;
  Held& operator=(const Held&) = delete;
  ~Held() { ++*released; }
};

void endless_pairs(Proc& p, SimQueue& queue, int* released) {
  const Held held(released);
  for (std::uint64_t i = 0;; ++i) {
    queue.enqueue(p, i);
    queue.dequeue(p);
  }
}

TEST(ShippedMsQueue, AbandonedProcessesReleaseTheirStacks) {
  int released = 0;
  {
    Engine engine(EngineConfig{});
    // Declared after the engine, so it is destroyed first: teardown must
    // not touch the queue the abandoned processes were inside.
    ShippedMsQueue queue(engine, /*capacity=*/4);
    const std::uint32_t frozen = engine.spawn(
        0, [&](Proc& p) { endless_pairs(p, queue, &released); });
    const std::uint32_t crashed = engine.spawn(
        0, [&](Proc& p) { endless_pairs(p, queue, &released); });
    engine.spawn(0, [&](Proc& p) {
      const Held held(&released);
      p.read(0);
    });  // never scheduled: nothing to release
    engine.freeze_at_label(frozen, "ms.E9.link_cas");
    for (int i = 0; i < 1'000 && std::string(engine.label(frozen)) !=
                                     "ms.E9.link_cas";
         ++i) {
      engine.step(frozen);
    }
    ASSERT_EQ(std::string(engine.label(frozen)), "ms.E9.link_cas");
    for (int i = 0; i < 7; ++i) engine.step(crashed);  // mid-operation
    engine.crash(crashed);
    ASSERT_FALSE(engine.done(frozen));
    ASSERT_FALSE(engine.done(crashed));
    EXPECT_EQ(released, 0);
  }
  EXPECT_EQ(released, 2) << "abandoned processes must unwind their stacks";
}

TEST(Engine, AbandonedHandModelProcessUnwinds) {
  int released = 0;
  {
    Engine engine(EngineConfig{});
    const Addr word = engine.memory().alloc(1);
    const std::uint32_t id = engine.spawn(0, [&](Proc& p) {
      const Held held(&released);
      for (;;) p.read(word);
    });
    for (int i = 0; i < 5; ++i) engine.step(id);
  }
  EXPECT_EQ(released, 1);
}

}  // namespace
}  // namespace msq::sim
