// Directed weak-memory cases for the order-aware explorer: the handful of
// scenarios whose outcome we can state exactly, as opposed to the
// table-driven sweep in tools/mo_mutation_sweep.cpp which covers every
// site.  Four claims are pinned down here:
//
//  1. the shipped MS queue (queues/ms_queue.hpp) with its D4 next read
//     mutated to a plain read is flagged with a trace that names the
//     paper's pseudo-code lines;
//  2. the shipped orders explore clean under SyncModel::kOrders,
//     and the E9/E13 order weakenings the table calls "masked by the pool's
//     acq_rel mesh" really are silent;
//  3. store-buffer mode DEGENERATES to the SC search when every access is
//     seq_cst: same schedule count, same terminal outcomes;
//  4. the two mutations only one detection layer can see behave as claimed:
//     sb.store_flag -> relaxed reaches the SC-forbidden both-zero outcome
//     under TSO exploration and never under SC; lock.unlock_store ->
//     relaxed never corrupts a terminal state yet always leaves an hb race.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "check/race.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/litmus_sim.hpp"
#include "sim/mo_table.hpp"
#include "sim/queue_iface.hpp"
#include "sim/shipped.hpp"

namespace msq::sim {
namespace {

[[nodiscard]] EngineConfig order_config(bool weak) {
  EngineConfig config;
  config.race_detect = true;
  config.sync_model = check::SyncModel::kOrders;
  config.weak_memory = weak;
  return config;
}

[[nodiscard]] bool has_label(const check::RaceReport& r, std::string_view l) {
  return std::string_view(r.first_label) == l ||
         std::string_view(r.second_label) == l;
}

// --- 1p1c MS world (the sweep's world A, one value) -------------------------

struct MsOrderWorld {
  Engine engine;
  ShippedMsQueue queue;

  MsOrderWorld(const MoTable* mo, bool weak)
      : engine(order_config(weak)), queue(engine, /*capacity=*/2,
                                          /*backoff_max=*/0, mo) {
    engine.spawn(0, [this](Proc& p) { return produce(p); });
    engine.spawn(0, [this](Proc& p) { return consume(p); });
  }

  void produce(Proc& p) {
    const bool ok = queue.enqueue(p, 7);
    (void)ok;
  }

  void consume(Proc& p) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const std::uint64_t v = queue.dequeue(p);
      if (v != kEmpty) return;
    }
  }
};

/// Total races across a DPOR sweep of the MS world; optionally keeps the
/// deduplicated reports for label assertions.
std::uint64_t ms_world_races(const MoTable* mo,
                             std::vector<check::RaceReport>* reports = nullptr) {
  std::unique_ptr<MsOrderWorld> world;
  std::uint64_t observed = 0;
  DporConfig config;
  config.max_steps_per_run = 5'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<MsOrderWorld>(mo, /*weak=*/false);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        observed += engine.races().observed();
        if (reports != nullptr) {
          for (const check::RaceReport& r : engine.races().reports()) {
            reports->push_back(r);
          }
        }
      });
  EXPECT_FALSE(result.budget_exhausted);
  return observed;
}

// A mutated D4 is flagged, and the trace speaks pseudo-code: the plain D4
// next read races with the concurrent E9 link CAS, and the report names
// both lines by their site names.
TEST(SimWeakMemory, PlainD4NextReadIsFlaggedWithLabelledTrace) {
  MoTable table;
  table.set("ms.D4.next_load", check::MemOrder::kPlain);
  std::vector<check::RaceReport> reports;
  const std::uint64_t observed = ms_world_races(&table, &reports);
  EXPECT_GT(observed, 0u) << "plain D4 must race with the E9 link CAS";
  bool d4_vs_e9 = false;
  for (const check::RaceReport& r : reports) {
    if (has_label(r, "ms.D4.next_load") && has_label(r, "ms.E9.link_cas")) {
      d4_vs_e9 = true;
    }
  }
  EXPECT_TRUE(d4_vs_e9)
      << "expected a report naming [D4] vs [E9], got " << reports.size()
      << " report(s)"
      << (reports.empty() ? "" : (": " + reports.front().format()).c_str());
}

// The shipped orders are clean, and the two "masked by the free list's
// acq_rel mesh" weakenings from sim/mo_table.hpp really are unobservable:
// the sweep proves it across all worlds; this directed case documents the
// 1p1c instance.
TEST(SimWeakMemory, AnnotatedModelAndMaskedWeakeningsExploreClean) {
  EXPECT_EQ(ms_world_races(nullptr), 0u) << "shipped MS queue raced";

  MoTable e9;
  e9.set("ms.E9.link_cas", check::MemOrder::kRelaxed);
  EXPECT_EQ(ms_world_races(&e9), 0u)
      << "E9 relaxed should be masked by the pool hand-off mesh";

  MoTable e13;
  e13.set("ms.E13.tail_swing", check::MemOrder::kRelaxed);
  EXPECT_EQ(ms_world_races(&e13), 0u)
      << "E13 relaxed should be masked by E9's release";
}

// --- store-buffer degeneracy -------------------------------------------------

struct SbWorld {
  Engine engine;
  SbLitmus litmus;

  SbWorld(const MoTable* mo, bool weak)
      : engine(order_config(weak)), litmus(engine, mo) {
    engine.spawn(0, [this](Proc& p) { return litmus.run(p, 0); });
    engine.spawn(0, [this](Proc& p) { return litmus.run(p, 1); });
  }
};

struct SbSweep {
  std::uint64_t schedules = 0;
  std::uint64_t races = 0;
  std::set<std::pair<std::uint64_t, std::uint64_t>> outcomes;
  bool both_zero_reached = false;
};

[[nodiscard]] SbSweep sweep_sb(const MoTable* mo, bool weak) {
  std::unique_ptr<SbWorld> world;
  SbSweep out;
  DporConfig config;
  config.max_steps_per_run = 1'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<SbWorld>(mo, weak);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        out.races += engine.races().observed();
        if (!engine.all_done()) return;
        out.outcomes.emplace(world->litmus.result(0), world->litmus.result(1));
        if (world->litmus.both_zero()) out.both_zero_reached = true;
      });
  EXPECT_FALSE(result.budget_exhausted);
  out.schedules = result.schedules_run;
  return out;
}

// With every access seq_cst (the annotated litmus), TSO store buffers are
// never engaged -- seq_cst stores drain eagerly -- so weak-memory
// exploration IS the SC exploration: same schedule count, same outcome
// set, and the SC-forbidden outcome is absent from both.
TEST(SimWeakMemory, AllSeqCstDegeneratesToScSearch) {
  const SbSweep sc = sweep_sb(nullptr, /*weak=*/false);
  const SbSweep weak = sweep_sb(nullptr, /*weak=*/true);
  EXPECT_EQ(sc.schedules, weak.schedules);
  EXPECT_EQ(sc.outcomes, weak.outcomes);
  EXPECT_EQ(sc.races + weak.races, 0u);
  EXPECT_FALSE(sc.both_zero_reached);
  EXPECT_FALSE(weak.both_zero_reached);
  // SC admits exactly the three classic outcomes: (0,1), (1,0), (1,1).
  EXPECT_EQ(sc.outcomes.size(), 3u);
}

// Weakening the SB store below seq_cst admits the both-zero outcome under
// TSO exploration -- and ONLY there: the same mutation explored without
// store buffers never produces it and reports no race either.  This is the
// mutation the weak-memory mode exists to catch.
TEST(SimWeakMemory, RelaxedSbStoreCaughtOnlyByStoreBufferMode) {
  MoTable table;
  table.set("sb.store_flag", check::MemOrder::kRelaxed);
  const SbSweep sc = sweep_sb(&table, /*weak=*/false);
  EXPECT_FALSE(sc.both_zero_reached) << "SC execution cannot reorder stores";
  EXPECT_EQ(sc.races, 0u) << "all accesses atomic: no hb race either";
  const SbSweep weak = sweep_sb(&table, /*weak=*/true);
  EXPECT_TRUE(weak.both_zero_reached)
      << "TSO flush nondeterminism must reach the both-zero outcome";
  EXPECT_GT(weak.schedules, sc.schedules)
      << "flush agents should enlarge the search space";
}

// --- the hb-layer-only catch -------------------------------------------------

// The shipped sync/tatas_lock.hpp over a simulated flag.
struct LockWorld {
  Engine engine;
  SimBinding binding;
  std::optional<SimTatasLock> lock;
  Addr counter;

  LockWorld(const MoTable* mo, bool weak)
      : engine(order_config(weak)),
        binding{&engine, mo, /*backoff_max=*/0},
        counter(engine.memory().alloc(1)) {
    const SimBinding::Scope scope(binding);
    lock.emplace();
    for (int w = 0; w < 2; ++w) {
      engine.spawn(0, [this](Proc& p) { return worker(p); });
    }
  }

  void worker(Proc& p) {
    p.shielded(&binding, [&] {
      lock->lock();
      const std::uint64_t v = p.read(counter, check::MemOrder::kPlain);
      p.write(counter, v + 1, check::MemOrder::kPlain);
      lock->unlock();
      return true;
    });
  }
};

// Demoting the unlock store to relaxed keeps mutual exclusion intact --
// every terminal state still counts to 2 -- so no value-level check can
// see it.  The severed release edge is visible only to the order-aware hb
// tracker, as a race on the critical section's plain counter.
TEST(SimWeakMemory, RelaxedUnlockCaughtByHbLayerOnly) {
  MoTable table;
  table.set("lock.unlock_store", check::MemOrder::kRelaxed);
  std::unique_ptr<LockWorld> world;
  std::uint64_t races = 0;
  std::uint64_t lost_updates = 0;
  DporConfig config;
  config.max_steps_per_run = 3'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<LockWorld>(&table, /*weak=*/false);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        races += engine.races().observed();
        const bool done = engine.all_done();
        if (done && engine.memory().peek(world->counter) != 2) ++lost_updates;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(lost_updates, 0u) << "mutual exclusion must still hold";
  EXPECT_GT(races, 0u) << "the severed release edge must race";

  // And the annotated lock is clean: the release/acquire pair orders the
  // critical sections.
  std::uint64_t annotated_races = 0;
  const DporResult clean = explore_dpor(
      config, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<LockWorld>(nullptr, /*weak=*/false);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) { annotated_races += engine.races().observed(); });
  EXPECT_FALSE(clean.budget_exhausted);
  EXPECT_EQ(annotated_races, 0u);
}

}  // namespace
}  // namespace msq::sim
