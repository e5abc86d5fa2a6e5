// Happens-before race detection (check/race.hpp) wired into the simulator,
// and DPOR (sim/explore.hpp) as its schedule driver.
//
// Headline assertions:
//  * an unsynchronized counter increment is reported as a race naming the
//    labelled lines of BOTH conflicting accesses;
//  * a CAS-spin lock whose unlock is an atomic swap is race-free under the
//    rmw sync model, while the same lock with a plain-write unlock races --
//    the memory-order audit the lint enforces textually, demonstrated
//    dynamically;
//  * the simulated MS and two-lock queues report ZERO races across a full
//    DPOR sweep under their declared edges (SyncModel::kFull, modelling the
//    seq_cst pseudo-code), while the naive no-edges model (SyncModel::kNone)
//    flags the Valois and single-lock queues immediately;
//  * DPOR reaches exactly the brute-force set of distinct terminal states
//    with strictly fewer schedules (the reduction ratio is asserted > 1 and
//    logged).
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "check/race.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"
#include "tests/tiny_stack_sim.hpp"

namespace msq::sim {
namespace {

using check::SyncModel;
using testing::kNullNode;
using testing::TinyStack;

[[nodiscard]] EngineConfig race_config(SyncModel model) {
  EngineConfig config;
  config.race_detect = true;
  config.sync_model = model;
  return config;
}

[[nodiscard]] bool has_label(const check::RaceReport& r, std::string_view l) {
  return std::string_view(r.first_label) == l ||
         std::string_view(r.second_label) == l;
}

// --- the canonical bug: load-modify-store on a shared counter ---------------

void unsync_increment(Proc& p, Addr counter) {
  p.at("C_READ");
  const std::uint64_t v = p.read(counter);
  p.at("C_WRITE");
  p.write(counter, v + 1);
}

TEST(RaceDetect, UnsynchronizedCounterFlagsRaceWithBothLabels) {
  Engine engine(race_config(SyncModel::kRmw));
  const Addr counter = engine.memory().alloc(1);
  for (int t = 0; t < 2; ++t) {
    engine.spawn(0,
                 [&, counter](Proc& p) { return unsync_increment(p, counter); });
  }
  run_schedule(engine, {}, 1'000, nullptr);

  ASSERT_FALSE(engine.races().empty())
      << "unsynchronized increment not flagged";
  bool saw_labelled_pair = false;
  for (const check::RaceReport& r : engine.races().reports()) {
    EXPECT_EQ(r.addr, counter);
    if (has_label(r, "C_READ") || has_label(r, "C_WRITE")) {
      saw_labelled_pair = true;
      // The report must read like the paper's race catalogue: both sites
      // named, e.g. "P1 read at [C_READ] ... vs P0 write at [C_WRITE]".
      EXPECT_NE(r.format().find("C_"), std::string::npos) << r.format();
    }
  }
  EXPECT_TRUE(saw_labelled_pair)
      << "no report names the C_READ/C_WRITE pseudo-code lines";
}

void faa_increment(Proc& p, Addr counter) {
  p.at("C_FAA");
  p.faa(counter, 1);
}

TEST(RaceDetect, FetchAndAddCounterIsCleanUnderRmwModel) {
  Engine engine(race_config(SyncModel::kRmw));
  const Addr counter = engine.memory().alloc(1);
  for (int t = 0; t < 2; ++t) {
    engine.spawn(0,
                 [&, counter](Proc& p) { return faa_increment(p, counter); });
  }
  run_schedule(engine, {}, 1'000, nullptr);
  EXPECT_TRUE(engine.races().empty());
  EXPECT_EQ(engine.memory().peek(counter), 2u);
}

// --- memory-order audit, dynamically: the spin-lock unlock ------------------
//
// A CAS-spin lock synchronizes through its word only if the UNLOCK is also
// an atomic RMW (or a release store, which the rmw model approximates with
// swap).  Demoting the unlock to a plain write is exactly the bug the
// atomics lint's explicit-order rule exists to catch in real code; here the
// detector catches it dynamically through the missing happens-before edge.

void lock_protected_bump(Proc& p, Addr lock, Addr data,
                         bool swap_unlock) {
  for (;;) {
    p.at("L_ACQ");
    const std::uint64_t old = p.cas(lock, 0, 1);
    if (old == 0) break;
  }
  p.at("L_DATA");
  const std::uint64_t v = p.read(data);
  p.write(data, v + 1);
  p.at("L_REL");
  if (swap_unlock) {
    p.swap(lock, 0);  // RMW: carries the release edge
  } else {
    p.write(lock, 0);  // plain write: edge silently dropped
  }
}

std::uint64_t spinlock_races(bool swap_unlock) {
  Engine engine(race_config(SyncModel::kRmw));
  const Addr lock = engine.memory().alloc(1);
  const Addr data = engine.memory().alloc(1);
  for (int t = 0; t < 2; ++t) {
    engine.spawn(0, [&, lock, data](Proc& p) {
      return lock_protected_bump(p, lock, data, swap_unlock);
    });
  }
  run_schedule(engine, {}, 10'000, nullptr);
  EXPECT_EQ(engine.memory().peek(data), 2u);
  return engine.races().observed();
}

TEST(RaceDetect, SpinLockWithSwapUnlockIsClean) {
  EXPECT_EQ(spinlock_races(/*swap_unlock=*/true), 0u);
}

TEST(RaceDetect, SpinLockWithPlainWriteUnlockRaces) {
  EXPECT_GT(spinlock_races(/*swap_unlock=*/false), 0u)
      << "the dropped release edge on unlock must surface as a race";
}

// --- the queues under their declared edges ----------------------------------

void enqueue_one(Proc& p, SimQueue& queue, std::uint64_t value) {
  for (;;) {
    const bool ok = queue.enqueue(p, value);
    if (ok) break;
  }
}

void dequeue_one(Proc& p, SimQueue& queue, std::uint64_t& out) {
  out = queue.dequeue(p);
}

/// One producer, one consumer over a fresh simulated queue with race
/// detection under `model`.
struct RaceQueueWorld {
  Engine engine;
  std::unique_ptr<SimQueue> queue;
  std::uint64_t dequeued = kEmpty;

  RaceQueueWorld(Algo algo, SyncModel model) : engine(race_config(model)) {
    queue = make_sim_queue(algo, engine, 8);
    engine.spawn(0, [this](Proc& p) { return enqueue_one(p, *queue, 41); });
    engine.spawn(0, [this](Proc& p) { return dequeue_one(p, *queue, dequeued); });
  }
};

/// Total race observations across a full DPOR sweep of the world.
std::uint64_t races_across_dpor(Algo algo, SyncModel model,
                                std::uint64_t* schedules = nullptr) {
  std::unique_ptr<RaceQueueWorld> world;
  std::uint64_t observed = 0;
  DporConfig config;
  config.max_steps_per_run = 5'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<RaceQueueWorld>(algo, model);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) { observed += engine.races().observed(); });
  EXPECT_FALSE(result.budget_exhausted) << algo_name(algo);
  EXPECT_GT(result.schedules_run, 1u)
      << algo_name(algo) << ": DPOR explored no alternatives";
  if (schedules != nullptr) *schedules = result.schedules_run;
  return observed;
}

TEST(RaceDetect, MsQueueIsCleanUnderDeclaredEdgesAcrossDporSweep) {
  EXPECT_EQ(races_across_dpor(Algo::kMs, SyncModel::kFull), 0u)
      << "the MS queue raced under its declared (seq_cst pseudo-code) edges";
}

TEST(RaceDetect, TwoLockQueueIsCleanUnderDeclaredEdgesAcrossDporSweep) {
  EXPECT_EQ(races_across_dpor(Algo::kTwoLock, SyncModel::kFull), 0u)
      << "the two-lock queue raced under its declared edges";
}

TEST(RaceDetect, NaiveModeFlagsValoisAndSingleLockQueues) {
  // SyncModel::kNone models the naive port that declares NO ordering: every
  // conflicting pair is a race.  The detector must flag the known-racy
  // sharing immediately -- on the plain round-robin schedule, no
  // exploration needed.
  for (const Algo algo : {Algo::kValois, Algo::kSingleLock}) {
    RaceQueueWorld world(algo, SyncModel::kNone);
    run_schedule(world.engine, {}, 10'000, nullptr);
    EXPECT_GT(world.engine.races().observed(), 0u)
        << algo_name(algo) << ": naive mode flagged nothing";
  }
}

// --- DPOR vs brute force ----------------------------------------------------

/// Two poppers racing on a counted Treiber stack holding [A=0, B=1]: small
/// enough to enumerate EVERY interleaving, contended enough that schedules
/// genuinely differ (who gets A, who gets B, who retries).
struct PopRaceWorld {
  Engine engine;
  TinyStack<true> stack{engine, 4};
  std::uint64_t p0 = kNullNode;
  std::uint64_t p1 = kNullNode;

  PopRaceWorld() {
    SimMemory& mem = engine.memory();
    mem.word(stack.next_addr(1)) = TinyStack<true>::encode(kNullNode, 0);
    mem.word(stack.next_addr(0)) = TinyStack<true>::encode(1, 0);
    mem.word(stack.next_addr(4)) = TinyStack<true>::encode(0, 7);  // top
    engine.spawn(0, [this](Proc& p) { return pop_into(p, p0); });
    engine.spawn(0, [this](Proc& p) { return pop_into(p, p1); });
  }

  void pop_into(Proc& p, std::uint64_t& out) {
    out = stack.pop(p);
  }

  [[nodiscard]] std::string terminal() const {
    std::string s = std::to_string(p0) + "/" + std::to_string(p1) + ":";
    for (const std::uint64_t n : stack.snapshot(engine)) {
      s += std::to_string(n) + ",";
    }
    return s;
  }
};

/// Exhaustive DFS over every scheduling choice, by replay.  Complete
/// schedule count lands in `schedules`, terminal states in `states`.
void brute_force_terminals(std::set<std::string>& states,
                           std::uint64_t& schedules) {
  std::vector<std::vector<std::uint32_t>> options;  // enabled procs per depth
  std::vector<std::size_t> pick;                    // chosen index per depth
  schedules = 0;
  for (;;) {
    PopRaceWorld world;
    Engine& engine = world.engine;
    for (std::size_t d = 0; d < pick.size(); ++d) {
      engine.step(options[d][pick[d]]);
    }
    for (;;) {  // extend with first-enabled until everything finishes
      std::vector<std::uint32_t> enabled;
      for (std::uint32_t q = 0; q < engine.process_count(); ++q) {
        if (!engine.done(q)) enabled.push_back(q);
      }
      if (enabled.empty()) break;
      ASSERT_LT(options.size(), 64u) << "brute-force runaway";  // safety net
      options.push_back(enabled);
      pick.push_back(0);
      engine.step(enabled[0]);
    }
    ++schedules;
    states.insert(world.terminal());
    while (!pick.empty()) {  // backtrack to the deepest untried choice
      if (++pick.back() < options.back().size()) break;
      pick.pop_back();
      options.pop_back();
    }
    if (pick.empty()) break;
  }
}

TEST(Dpor, CoversEveryBruteForceTerminalStateWithFewerSchedules) {
  std::set<std::string> brute_states;
  std::uint64_t brute_schedules = 0;
  brute_force_terminals(brute_states, brute_schedules);
  ASSERT_GT(brute_schedules, 0u);
  ASSERT_FALSE(brute_states.empty());

  std::set<std::string> dpor_states;
  std::unique_ptr<PopRaceWorld> world;
  const DporResult result = explore_dpor(
      DporConfig{}, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<PopRaceWorld>();
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine&) { dpor_states.insert(world->terminal()); });

  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(dpor_states, brute_states)
      << "DPOR missed (or invented) a reachable terminal state";
  ASSERT_LT(result.schedules_run, brute_schedules)
      << "DPOR must beat brute-force enumeration";
  std::cout << "[ DPOR     ] brute-force " << brute_schedules
            << " schedules, DPOR " << result.schedules_run << " run + "
            << result.sleep_blocked << " sleep-blocked, "
            << brute_states.size() << " distinct terminal states, reduction "
            << static_cast<double>(brute_schedules) /
                   static_cast<double>(result.schedules_run)
            << "x\n";
}

}  // namespace
}  // namespace msq::sim
