// Fault-tolerance proofs for the paper's central robustness claim
// (section 1): "if a process is halted or delayed while executing one of
// these algorithms, non-blocking algorithms guarantee that some process
// will complete an operation in a finite number of steps", while blocking
// algorithms wedge when the victim dies holding a lock (or, for MC, a
// claimed-but-unlinked tail slot).
//
// Three layers of evidence:
//  1. Engine primitives: crash(pid) is a permanent halt, stall(pid, n) a
//     bounded one (tests of the new fault-injection substrate itself).
//  2. Simulator crash-step sweep (src/fault/crash_sweep.hpp): a victim is
//     crash-stopped after EVERY reachable shared-memory step of one
//     enqueue and one dequeue; survivors must keep completing operations
//     (MS, PLJ, Valois, Treiber) with all structural invariants intact,
//     while the lock-based algorithms (single-lock, two-lock, MC) wedge in
//     exactly -- and only -- the lock-held / mid-link band of crash steps.
//  3. Real threads: FaultPlan halts a victim thread at the matching
//     labelled CAS/lock sites inside src/queues; survivor threads complete
//     bounded workloads under a Watchdog deadline, and pool exhaustion
//     under a halted Valois reader degrades into clean try_enqueue
//     backpressure instead of corruption.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fault/crash_sweep.hpp"
#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "queues/queues.hpp"
#include "sim/engine.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"
#include "tiny_stack_sim.hpp"

namespace msq {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// 1. The fault primitives themselves
// ---------------------------------------------------------------------------

sim::Task<void> count_reads(sim::Proc& p, sim::Addr addr, std::uint64_t n,
                            std::uint64_t& done) {
  for (std::uint64_t i = 0; i < n; ++i) {
    co_await p.read(addr);
    ++done;
  }
}

TEST(EnginePrimitives, CrashedProcessNeverRunsAgain) {
  sim::Engine engine;
  const sim::Addr word = engine.memory().alloc(1);
  std::uint64_t a_done = 0, b_done = 0;
  const auto a = engine.spawn(0, [&](sim::Proc& p) {
    return count_reads(p, word, 100, a_done);
  });
  const auto b = engine.spawn(0, [&](sim::Proc& p) {
    return count_reads(p, word, 100, b_done);
  });

  for (int i = 0; i < 10; ++i) engine.step(a);
  engine.crash(a);
  ASSERT_TRUE(engine.is_crashed(a));
  // A crashed process declines directed steps and never finishes.
  EXPECT_FALSE(engine.step(a));
  const std::uint64_t frozen_at = a_done;

  // Random scheduling never picks it either; the survivor still finishes.
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    if (!engine.step_random()) break;
  }
  EXPECT_EQ(a_done, frozen_at);
  EXPECT_FALSE(engine.done(a));
  EXPECT_TRUE(engine.done(b));
  EXPECT_EQ(b_done, 100u);
  EXPECT_FALSE(engine.all_done());  // the crash is permanent
}

TEST(EnginePrimitives, StallIsABoundedDelayNotACrash) {
  sim::Engine engine;
  const sim::Addr word = engine.memory().alloc(1);
  std::uint64_t a_done = 0, b_done = 0;
  const auto a = engine.spawn(0, [&](sim::Proc& p) {
    return count_reads(p, word, 50, a_done);
  });
  engine.spawn(0, [&](sim::Proc& p) {
    return count_reads(p, word, 50, b_done);
  });

  engine.stall(a, 200);
  ASSERT_TRUE(engine.is_stalled(a));
  // While stalled, directed steps are consumed idling...
  EXPECT_TRUE(engine.step(a));
  EXPECT_EQ(a_done, 0u);
  // ...and the stall elapses under random scheduling, after which the
  // stalled process completes normally (unlike a crash).
  std::uint64_t steps = 0;
  while (!engine.all_done() && steps < 10'000) {
    ASSERT_TRUE(engine.step_random());
    ++steps;
  }
  EXPECT_TRUE(engine.done(a));
  EXPECT_FALSE(engine.is_stalled(a));
  EXPECT_EQ(a_done, 50u);
  EXPECT_EQ(b_done, 50u);
}

TEST(EnginePrimitives, StallOnlyProcessesStillElapseViaIdleTicks) {
  sim::Engine engine;
  const sim::Addr word = engine.memory().alloc(1);
  std::uint64_t done = 0;
  const auto a = engine.spawn(0, [&](sim::Proc& p) {
    return count_reads(p, word, 5, done);
  });
  engine.stall(a, 30);
  // Every live process is stalled: step_random must burn idle ticks until
  // the delay elapses rather than declaring the run finished.
  std::uint64_t steps = 0;
  while (!engine.done(a)) {
    ASSERT_TRUE(engine.step_random()) << "stall never elapsed";
    ASSERT_LT(++steps, 1'000u);
  }
  EXPECT_EQ(done, 5u);
}

// ---------------------------------------------------------------------------
// 2. Simulator crash-step sweeps
// ---------------------------------------------------------------------------

struct SweepCase {
  sim::Algo algo;
  fault::VictimOp op;
  const char* name;
};

class NonBlockingCrashSweep : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllOps, NonBlockingCrashSweep,
    ::testing::Values(
        SweepCase{sim::Algo::kMs, fault::VictimOp::kEnqueue, "ms_enq"},
        SweepCase{sim::Algo::kMs, fault::VictimOp::kDequeue, "ms_deq"},
        SweepCase{sim::Algo::kPlj, fault::VictimOp::kEnqueue, "plj_enq"},
        SweepCase{sim::Algo::kPlj, fault::VictimOp::kDequeue, "plj_deq"},
        SweepCase{sim::Algo::kValois, fault::VictimOp::kEnqueue, "valois_enq"},
        SweepCase{sim::Algo::kValois, fault::VictimOp::kDequeue, "valois_deq"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(NonBlockingCrashSweep, SurvivorsCompleteOperationsAtEveryCrashStep) {
  const SweepCase& c = GetParam();
  const fault::CrashSweep sweep = fault::crash_sweep(c.algo, c.op);
  ASSERT_GT(sweep.op_steps, 0u);
  ASSERT_EQ(sweep.points.size(), sweep.op_steps);
  for (const fault::CrashPoint& point : sweep.points) {
    ASSERT_FALSE(point.victim_completed)
        << "crash step " << point.crash_step << " past the op's end";
    // Non-blocking (paper 3.3): survivors complete operations no matter
    // where the victim died -- including between link and tail swing.
    EXPECT_GT(point.survivor_enqueues, 20u)
        << "survivor enqueues wedged; victim died after step "
        << point.crash_step << " at '" << point.victim_label << "'";
    EXPECT_GT(point.survivor_dequeues, 20u)
        << "survivor dequeues wedged; victim died after step "
        << point.crash_step << " at '" << point.victim_label << "'";
    EXPECT_TRUE(point.invariants_ok)
        << "crash step " << point.crash_step << ": " << point.invariant_error;
  }
}

TEST(LockBasedCrashSweep, SingleLockWedgesExactlyInTheLockHeldBand) {
  const fault::CrashSweep sweep =
      fault::crash_sweep(sim::Algo::kSingleLock, fault::VictimOp::kEnqueue);
  ASSERT_GT(sweep.op_steps, 0u);

  // Crash BEFORE the first step: the victim holds nothing, survivors run.
  const fault::CrashPoint& first = sweep.points.front();
  EXPECT_GT(first.survivor_enqueues, 20u);
  EXPECT_GT(first.survivor_dequeues, 20u);

  // The wedge band: dying while holding the lock stalls everyone, forever.
  std::size_t wedged = 0;
  bool in_band = false, band_ended = false;
  for (const fault::CrashPoint& point : sweep.points) {
    EXPECT_TRUE(point.invariants_ok) << point.invariant_error;
    const bool is_wedged =
        point.survivor_enqueues == 0 && point.survivor_dequeues == 0;
    if (is_wedged) {
      ++wedged;
      EXPECT_FALSE(band_ended)
          << "wedge band not contiguous at step " << point.crash_step;
      in_band = true;
    } else if (in_band) {
      band_ended = true;
    }
  }
  EXPECT_GT(wedged, 0u) << "no crash step ever wedged -- sweep too shallow";
  EXPECT_LT(wedged, sweep.points.size()) << "every crash step wedged";
}

/// Step `victim` until its label equals `label` (it has committed to, but
/// not executed, the labelled operation), then crash-stop it there.
void crash_at_label(sim::Engine& engine, std::uint32_t victim,
                    std::string_view label) {
  while (engine.step(victim)) {
    if (engine.label(victim) == label) break;
  }
  ASSERT_EQ(engine.label(victim), label) << "victim never reached " << label;
  engine.crash(victim);
}

struct OpCounts {
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t empty = 0;
};

sim::Task<void> endless_enqueues(sim::Proc& p, sim::SimQueue& queue,
                                 std::uint32_t producer, OpCounts& counts) {
  for (std::uint64_t i = 0;; ++i) {
    const bool ok =
        co_await queue.enqueue(p, (std::uint64_t{producer} << 40) | i);
    if (ok) ++counts.enqueues;
  }
}

sim::Task<void> endless_dequeues(sim::Proc& p, sim::SimQueue& queue,
                                 OpCounts& counts) {
  for (;;) {
    const std::uint64_t got = co_await queue.dequeue(p);
    if (got != sim::kEmpty) {
      ++counts.dequeues;
    } else {
      ++counts.empty;
    }
  }
}

sim::Task<void> n_enqueues(sim::Proc& p, sim::SimQueue& queue, std::uint64_t n,
                           OpCounts& counts) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool ok = co_await queue.enqueue(p, 0x7000 + i);
    if (ok) ++counts.enqueues;
  }
}

TEST(LockBasedCrashDirected, TwoLockVictimDeadAtTailLockWedgesEnqueuersOnly) {
  OpCounts preload, victim_counts, enq, deq;
  sim::Engine engine;
  auto queue = sim::make_sim_queue(sim::Algo::kTwoLock, engine, 64);
  {
    const auto id = engine.spawn(
        0, [&](sim::Proc& p) { return n_enqueues(p, *queue, 20, preload); });
    while (engine.step(id)) {
    }
    ASSERT_EQ(preload.enqueues, 20u);
  }
  const auto victim = engine.spawn(0, [&](sim::Proc& p) {
    return endless_enqueues(p, *queue, 0, victim_counts);
  });
  crash_at_label(engine, victim, "T_HELD");

  engine.spawn(0,
               [&](sim::Proc& p) { return endless_enqueues(p, *queue, 1, enq); });
  engine.spawn(0, [&](sim::Proc& p) { return endless_dequeues(p, *queue, deq); });
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    if (!engine.step_random()) break;
  }
  // The victim died holding T_lock: no enqueuer ever completes again...
  EXPECT_EQ(enq.enqueues, 0u);
  // ...but the other end keeps draining (the two-lock concurrency claim).
  EXPECT_GT(deq.dequeues, 10u);
  queue->check_invariants();
}

TEST(LockBasedCrashDirected, TwoLockVictimDeadAtHeadLockWedgesDequeuersOnly) {
  OpCounts victim_counts, enq, deq;
  sim::Engine engine;
  auto queue = sim::make_sim_queue(sim::Algo::kTwoLock, engine, 64);
  {
    OpCounts preload;
    const auto id = engine.spawn(
        0, [&](sim::Proc& p) { return n_enqueues(p, *queue, 10, preload); });
    while (engine.step(id)) {
    }
  }
  const auto victim = engine.spawn(0, [&](sim::Proc& p) {
    return endless_dequeues(p, *queue, victim_counts);
  });
  crash_at_label(engine, victim, "H_HELD");

  engine.spawn(0,
               [&](sim::Proc& p) { return endless_enqueues(p, *queue, 1, enq); });
  engine.spawn(0, [&](sim::Proc& p) { return endless_dequeues(p, *queue, deq); });
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    if (!engine.step_random()) break;
  }
  EXPECT_EQ(deq.dequeues, 0u);
  EXPECT_GT(enq.enqueues, 10u);
  queue->check_invariants();
}

TEST(LockBasedCrashDirected, McVictimDeadMidLinkWedgesDequeuersWithoutEmpty) {
  OpCounts victim_counts, deq;
  sim::Engine engine;
  auto queue = sim::make_sim_queue(sim::Algo::kMc, engine, 8);
  // The victim dies between its fetch_and_store of Tail and the link write,
  // on its FIRST enqueue: Tail has moved, so dequeuers must WAIT (never
  // "empty") for a link that will never be written.
  const auto victim = engine.spawn(0, [&](sim::Proc& p) {
    return endless_enqueues(p, *queue, 0, victim_counts);
  });
  crash_at_label(engine, victim, "MC_LINK");

  engine.spawn(0, [&](sim::Proc& p) { return endless_dequeues(p, *queue, deq); });
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    if (!engine.step_random()) break;
  }
  EXPECT_EQ(victim_counts.enqueues, 0u);
  EXPECT_EQ(deq.dequeues, 0u) << "dequeuer was not blocked";
  EXPECT_EQ(deq.empty, 0u)
      << "a crashed mid-link enqueuer must read as 'wait', never as 'empty'";
  queue->check_invariants();
}

// --- Treiber stack: crash-swept directly against the engine ---------------

sim::Task<void> stack_preload(sim::Proc& p,
                              sim::testing::TinyStack<true>& stack) {
  co_await stack.push(p, 1);
  co_await stack.push(p, 2);
  co_await stack.push(p, 3);
}

/// Pop a node, push it back, forever: each survivor only ever republishes
/// nodes it owns (just popped), so no node is ever in the stack twice.
sim::Task<void> stack_churn(sim::Proc& p, sim::testing::TinyStack<true>& stack,
                            std::uint64_t& ops) {
  for (;;) {
    const std::uint64_t got = co_await stack.pop(p);
    if (got == sim::testing::kNullNode) continue;
    ++ops;
    co_await stack.push(p, got);
    ++ops;
  }
}

TEST(TreiberCrashSweep, SurvivorsCompleteAtEveryCrashStepOfAPush) {
  // Measure an uncrashed push first.
  std::uint64_t push_steps = 0;
  {
    sim::Engine engine;
    sim::testing::TinyStack<true> stack(engine, 8);
    const auto victim =
        engine.spawn(0, [&](sim::Proc& p) { return stack.push(p, 0); });
    while (engine.step(victim)) ++push_steps;
    ASSERT_GT(push_steps, 0u);
  }

  for (std::uint64_t k = 0; k < push_steps; ++k) {
    std::uint64_t survivor_ops = 0;  // before the engine: outlives coroutines
    sim::Engine engine;
    sim::testing::TinyStack<true> stack(engine, 8);
    // Preload nodes 1..3 so survivors always have something to pop.
    {
      const auto id =
          engine.spawn(0, [&](sim::Proc& p) { return stack_preload(p, stack); });
      while (engine.step(id)) {
      }
    }
    const auto victim =
        engine.spawn(0, [&](sim::Proc& p) { return stack.push(p, 0); });
    for (std::uint64_t s = 0; s < k; ++s) engine.step(victim);
    ASSERT_FALSE(engine.done(victim));
    engine.crash(victim);

    for (int s = 0; s < 2; ++s) {
      engine.spawn(
          0, [&](sim::Proc& p) { return stack_churn(p, stack, survivor_ops); });
    }
    for (std::uint64_t i = 0; i < 6'000; ++i) {
      if (!engine.step_random()) break;
    }
    EXPECT_GT(survivor_ops, 50u)
        << "survivors wedged after victim crashed at push step " << k;

    // Structural sanity: the stack is acyclic and holds no duplicates.
    const auto snapshot = stack.snapshot(engine);
    EXPECT_LT(snapshot.size(), 8u) << "cycle reachable from Top";
    const std::set<std::uint64_t> unique(snapshot.begin(), snapshot.end());
    EXPECT_EQ(unique.size(), snapshot.size()) << "duplicate node in stack";
  }
}

// ---------------------------------------------------------------------------
// 3. Real threads: FaultPlan halts + Watchdog deadlines
// ---------------------------------------------------------------------------

// Figure 1 on both counted words: the default 64-bit word and the 128-bit
// cmpxchg16b word.  Same body, same fault sites, so every case below runs
// once per word.
template <typename Q>
class MsQueueFaults : public ::testing::Test {};

using MsQueueWords = ::testing::Types<
    queues::MsQueue<std::uint64_t>,
    queues::MsQueue<std::uint64_t, sync::Backoff, mem::FreeList,
                    tagged::AtomicTagged128>>;
TYPED_TEST_SUITE(MsQueueFaults, MsQueueWords);

TYPED_TEST(MsQueueFaults, SurvivorsCompleteWhileVictimHaltedAtE13) {
  fault::Watchdog watchdog(60s, "MsQueue halted-at-E13 survivors");
  TypeParam queue(256);

  fault::FaultPlan plan;
  plan.halt_at("ms.E13");  // first thread past the E9 link parks forever
  plan.arm();

  std::atomic<bool> victim_returned{false};
  std::thread victim([&] {
    EXPECT_TRUE(queue.try_enqueue(42));
    victim_returned.store(true);
  });
  plan.wait_for_halted(1);
  ASSERT_EQ(plan.halted_now(), 1u);
  ASSERT_FALSE(victim_returned.load());

  // The victim has LINKED its node but never swings Tail: survivors must
  // help (E12/D9) and still complete full workloads.
  std::atomic<std::uint64_t> enqueued{0}, dequeued{0};
  {
    std::vector<std::jthread> survivors;
    for (int t = 0; t < 2; ++t) {
      survivors.emplace_back([&] {
        for (int i = 0; i < 3'000; ++i) {
          while (!queue.try_enqueue(1)) std::this_thread::yield();
          enqueued.fetch_add(1, std::memory_order_relaxed);
          std::uint64_t out = 0;
          if (queue.try_dequeue(out)) {
            dequeued.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_EQ(enqueued.load(), 6'000u);
  EXPECT_FALSE(victim_returned.load());

  // Resurrect the victim so the test can join it; its enqueue completes.
  plan.release_halted();
  victim.join();
  EXPECT_TRUE(victim_returned.load());

  // Conservation across the whole episode (victim's item included).
  std::uint64_t out = 0, drained = 0;
  while (queue.try_dequeue(out)) ++drained;
  EXPECT_EQ(dequeued.load() + drained, enqueued.load() + 1);
  plan.disarm();
}

TYPED_TEST(MsQueueFaults, StaleE9LinkCannotLandOnARecycledTail) {
  // The ABA window the counted link exists for.  A parks at E9 holding
  // Tail = X (the dummy) and the `next` it read from X.  Meanwhile X is
  // dequeued and freed onto an EMPTY free list, so X.next again holds a
  // null index.  If freeing X reset its link count, X.next would equal
  // A's stale read, A's E9 CAS would link A's node onto a node that is no
  // longer in the queue, and the acknowledged item would be lost.  The
  // link count is monotone over a node's whole life (E3 and the free
  // list both bump it), so the stale CAS fails and A re-reads Tail.
  fault::Watchdog watchdog(60s, "MsQueue stale E9 link on a recycled tail");
  TypeParam queue(2);  // pool of 3: the dummy plus two items

  fault::FaultPlan plan;
  plan.halt_at("ms.E9");
  plan.arm();

  std::atomic<bool> acked{false};
  std::thread a([&] { acked.store(queue.try_enqueue(7)); });
  plan.wait_for_halted(1);
  ASSERT_EQ(plan.halted_now(), 1u);

  ASSERT_TRUE(queue.try_enqueue(8));  // takes the last free node
  ASSERT_EQ(queue.unsafe_free_nodes(), 0u);
  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_dequeue(out));  // frees X onto the empty list
  ASSERT_EQ(out, 8u);
  ASSERT_EQ(queue.unsafe_free_nodes(), 1u);

  plan.release_halted();
  a.join();
  plan.disarm();

  // Every acknowledged enqueue comes out exactly once, then empty.
  ASSERT_TRUE(acked.load());
  ASSERT_TRUE(queue.try_dequeue(out)) << "the acknowledged 7 was lost";
  EXPECT_EQ(out, 7u);
  EXPECT_FALSE(queue.try_dequeue(out));
  EXPECT_EQ(queue.unsafe_free_nodes(), 2u);
}

TEST(RealThreadFaults, TreiberSurvivorsCompleteWhileVictimHaltedMidPop) {
  fault::Watchdog watchdog(60s, "Treiber halted-mid-pop survivors");
  queues::TreiberStack<std::uint64_t> stack(64);
  ASSERT_TRUE(stack.try_push(11));
  ASSERT_TRUE(stack.try_push(22));

  fault::FaultPlan plan;
  plan.halt_at("treiber.pop_cas");
  plan.arm();

  std::thread victim([&] {
    std::uint64_t out = 0;
    stack.try_pop(out);  // parks between reading Top and the CAS
  });
  plan.wait_for_halted(1);

  std::atomic<std::uint64_t> ops{0};
  {
    std::vector<std::jthread> survivors;
    for (int t = 0; t < 2; ++t) {
      survivors.emplace_back([&] {
        for (int i = 0; i < 3'000; ++i) {
          if (stack.try_push(static_cast<std::uint64_t>(i))) {
            ops.fetch_add(1, std::memory_order_relaxed);
          }
          std::uint64_t out = 0;
          if (stack.try_pop(out)) ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  EXPECT_GT(ops.load(), 5'000u);

  plan.release_halted();
  victim.join();
  plan.disarm();
}

TEST(RealThreadFaults, ValoisHaltedReaderDegradesToCleanBackpressure) {
  // Valois's documented pathology: a halted process pins the suffix of
  // every node dequeued after its halt (each unreclaimed node's outgoing
  // link keeps its successor alive), so the pool drains.  The required
  // behaviour is GRACEFUL: try_enqueue returns false -- no assert, no
  // corruption, no hang -- and everything recovers once the victim is
  // resurrected and its references cascade back to the free list.
  fault::Watchdog watchdog(60s, "Valois halted-reader backpressure");
  queues::ValoisQueue<std::uint64_t> queue(48);

  fault::FaultPlan plan;
  plan.halt_at("valois.link");  // parks holding a SafeRead ref on old Tail
  plan.arm();

  std::thread victim([&] { EXPECT_TRUE(queue.try_enqueue(5)); });
  plan.wait_for_halted(1);

  std::uint64_t enq_ok = 0, enq_fail = 0, deq_ok = 0;
  for (int i = 0; i < 4'000; ++i) {
    // No retry loops: every call must return promptly (non-blocking).
    if (queue.try_enqueue(static_cast<std::uint64_t>(i))) {
      ++enq_ok;
    } else {
      ++enq_fail;
    }
    std::uint64_t out = 0;
    if (queue.try_dequeue(out)) ++deq_ok;
  }
  EXPECT_GT(enq_ok, 0u);
  EXPECT_GT(deq_ok, 0u);
  EXPECT_GT(enq_fail, 0u)
      << "pool never exhausted: the pinning cascade did not engage";

  plan.release_halted();
  victim.join();
  plan.disarm();

  // The victim's resumed release() cascades its pinned suffix back to the
  // free list: after a drain, the full capacity is allocatable again.
  std::uint64_t out = 0;
  while (queue.try_dequeue(out)) {
  }
  std::uint64_t recovered = 0;
  for (int i = 0; i < 40; ++i) {
    if (queue.try_enqueue(static_cast<std::uint64_t>(i))) ++recovered;
  }
  EXPECT_EQ(recovered, 40u) << "pool did not recover after victim release";
}

TEST(RealThreadFaults, TwoLockVictimHaltedWithTailLockWedgesEnqueuersOnly) {
  fault::Watchdog watchdog(60s, "two-lock halted tail-lock holder");
  queues::TwoLockQueue<std::uint64_t> queue(256);
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(queue.try_enqueue(i));

  fault::FaultPlan plan;
  plan.halt_at("twolock.T_held");  // parks INSIDE the tail critical section
  plan.arm();

  std::thread victim([&] { queue.try_enqueue(999); });
  plan.wait_for_halted(1);

  // An enqueuer blocks on T_lock forever (until release); a dequeuer
  // drains the preloaded items unhindered -- the two-lock design point,
  // now shown under a real halted thread.
  std::atomic<std::uint64_t> enq_done{0}, deq_done{0};
  std::thread enqueuer([&] {
    queue.try_enqueue(1);  // blocks inside the lock acquisition
    enq_done.fetch_add(1);
  });
  std::thread dequeuer([&] {
    std::uint64_t out = 0;
    while (deq_done.load() < 100) {
      if (queue.try_dequeue(out)) deq_done.fetch_add(1);
    }
  });
  dequeuer.join();  // completes: 100 preloaded items came out
  EXPECT_EQ(deq_done.load(), 100u);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(enq_done.load(), 0u) << "T_lock was somehow released";

  plan.release_halted();
  victim.join();
  enqueuer.join();
  EXPECT_EQ(enq_done.load(), 1u);
  plan.disarm();
}

TEST(RealThreadFaults, SingleLockVictimHaltedWithLockWedgesEverything) {
  fault::Watchdog watchdog(60s, "single-lock halted lock holder");
  queues::SingleLockQueue<std::uint64_t> queue(64);
  ASSERT_TRUE(queue.try_enqueue(1));

  fault::FaultPlan plan;
  plan.halt_at("singlelock.held");
  plan.arm();

  std::thread victim([&] { queue.try_enqueue(2); });
  plan.wait_for_halted(1);

  std::atomic<std::uint64_t> done{0};
  std::thread enqueuer([&] {
    queue.try_enqueue(3);
    done.fetch_add(1);
  });
  std::thread dequeuer([&] {
    std::uint64_t out = 0;
    queue.try_dequeue(out);
    done.fetch_add(1);
  });
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(done.load(), 0u) << "the single lock was somehow released";

  plan.release_halted();
  victim.join();
  enqueuer.join();
  dequeuer.join();
  EXPECT_EQ(done.load(), 2u);
  plan.disarm();
}

TEST(RealThreadFaults, DelayRuleWidensTheRaceWindowWithoutChangingResults) {
  // A delay (rather than halt) at the E13 window under concurrent load:
  // the queue must stay conservative -- this is the "delayed" half of the
  // paper's "halted or delayed" hypothesis.
  fault::Watchdog watchdog(60s, "MsQueue delayed-at-E13 stress");
  queues::MsQueue<std::uint64_t> queue(128);

  fault::FaultPlan plan;
  plan.delay_at("ms.E13", /*yields=*/3);
  plan.arm();

  std::atomic<std::uint64_t> enqueued{0}, dequeued{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 2'000; ++i) {
          while (!queue.try_enqueue(1)) std::this_thread::yield();
          enqueued.fetch_add(1, std::memory_order_relaxed);
          std::uint64_t out = 0;
          if (queue.try_dequeue(out)) {
            dequeued.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_GT(plan.hits("ms.E13"), 0u);
  std::uint64_t out = 0, drained = 0;
  while (queue.try_dequeue(out)) ++drained;
  EXPECT_EQ(dequeued.load() + drained, enqueued.load());
  plan.disarm();
}

// ---------------------------------------------------------------------------
// ShardedQueue fault sites: the announce-then-insert window, the steal
// sweep, the empty-verify double collect, and producer re-homing.
// ---------------------------------------------------------------------------

TEST(RealThreadFaults, ShardedVictimHaltedInAnnounceInsertWindowStaysCoherent) {
  // The victim parks AFTER bumping its shard's ticket but BEFORE inserting
  // the item -- the exact window the double-collect empty check exists
  // for.  A concurrent empty sweep that straddles the bump must rescan
  // (not miss the announcement), but later sweeps see a stable ticket and
  // report empty cleanly: the orphaned announcement can cost at most one
  // rescan, never a livelock.
  fault::Watchdog watchdog(60s, "sharded halted announce-insert window");
  queues::ShardedQueue<queues::MsQueue<std::uint64_t>, 2> queue(64);

  fault::FaultPlan plan;
  plan.halt_at("shardq.insert");
  plan.arm();

  std::atomic<bool> victim_returned{false};
  std::thread victim([&] {
    EXPECT_TRUE(queue.try_enqueue(7777));
    victim_returned.store(true);
  });
  plan.wait_for_halted(1);
  ASSERT_FALSE(victim_returned.load());

  // Survivors run full workloads across both shards; every empty sweep
  // must terminate (the Watchdog is the livelock detector here).
  std::atomic<std::uint64_t> enqueued{0}, dequeued{0};
  {
    std::vector<std::jthread> survivors;
    for (int t = 0; t < 2; ++t) {
      survivors.emplace_back([&] {
        for (int i = 0; i < 2'000; ++i) {
          while (!queue.try_enqueue(1)) std::this_thread::yield();
          enqueued.fetch_add(1, std::memory_order_relaxed);
          std::uint64_t out = 0;
          if (queue.try_dequeue(out)) {
            dequeued.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_EQ(enqueued.load(), 4'000u);
  EXPECT_FALSE(victim_returned.load());

  // Drain to empty while the victim is still parked: the final dequeue
  // runs the full coherent-empty sweep (the ticket it orphaned was bumped
  // before any pre[] collection here, so the sweep must report empty
  // rather than rescan forever -- the Watchdog polices that).
  std::uint64_t out = 0, drained = 0;
  while (queue.try_dequeue(out)) ++drained;
  EXPECT_FALSE(queue.try_dequeue(out));
  EXPECT_GT(plan.hits("shardq.verify"), 0u)
      << "the coherent-empty check never ran";
  EXPECT_EQ(dequeued.load() + drained, enqueued.load())
      << "victim's item surfaced before its insert resumed";

  // Resurrect: the victim's insert completes and ONLY then is its item
  // dequeuable.
  plan.release_halted();
  victim.join();
  std::uint64_t late = 0, late_drained = 0;
  while (queue.try_dequeue(late)) ++late_drained;
  EXPECT_EQ(late_drained, 1u);
  EXPECT_EQ(late, 7777u);
  plan.disarm();
}

TEST(RealThreadFaults, ShardedVictimHaltedMidStealSweepBlocksNobody) {
  // A consumer parked mid-sweep holds no shared state at all: both
  // enqueuers and dequeuers must be completely unaffected, and the items
  // its sweep was about to steal remain available to everyone else.
  fault::Watchdog watchdog(60s, "sharded halted mid-steal sweep");
  queues::ShardedQueue<queues::MsQueue<std::uint64_t>, 2> queue(64);
  for (std::uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(queue.try_enqueue(i));

  fault::FaultPlan plan;
  plan.halt_at("shardq.steal");
  plan.arm();

  std::thread victim([&] {
    std::uint64_t out = 0;
    queue.try_dequeue(out);  // parks inside the stealing sweep
  });
  plan.wait_for_halted(1);

  std::atomic<std::uint64_t> enqueued{0}, dequeued{0};
  {
    std::vector<std::jthread> survivors;
    for (int t = 0; t < 2; ++t) {
      survivors.emplace_back([&] {
        for (int i = 0; i < 2'000; ++i) {
          while (!queue.try_enqueue(1)) std::this_thread::yield();
          enqueued.fetch_add(1, std::memory_order_relaxed);
          std::uint64_t out = 0;
          if (queue.try_dequeue(out)) {
            dequeued.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_EQ(enqueued.load(), 4'000u);
  EXPECT_GT(plan.hits("shardq.steal"), 0u);

  plan.release_halted();
  victim.join();
  // The victim's resumed dequeue may or may not land an item; count what
  // it could have taken by draining and checking totals.
  std::uint64_t out = 0, drained = 0;
  while (queue.try_dequeue(out)) ++drained;
  EXPECT_GE(dequeued.load() + drained, enqueued.load() + 16 - 1);
  EXPECT_LE(dequeued.load() + drained, enqueued.load() + 16);
  plan.disarm();
}

TEST(RealThreadFaults, ShardedProducerRehomesOffAPersistentlyFullShard) {
  // Drive a producer against a full home shard until the re-home heuristic
  // fires (kRehomeAfter consecutive home failures with a neighbour
  // accepting).  An armed plan records site hits even with no rules, so
  // this doubles as probe-placement coverage for "shardq.rehome".
  queues::ShardedQueue<queues::MsQueue<std::uint64_t>, 2> queue(16);

  fault::FaultPlan plan;  // no rules: pure hit observation
  plan.arm();

  std::uint64_t accepted = 0;
  while (queue.try_enqueue(accepted)) ++accepted;
  EXPECT_GE(accepted, 14u) << "aggregate capacity refused far too early";
  EXPECT_GT(plan.hits("shardq.insert"), 0u);
  EXPECT_GT(plan.hits("shardq.rehome"), 0u)
      << "home shard stayed full but the producer never re-homed";
  plan.disarm();
}

TEST(RealThreadFaults, StallRuleBindsOneStickyVictimAndAccountsTime) {
  // The tail-latency instrument bench/fig_stall.cpp relies on: (a) exactly
  // one thread -- the first to hit the site -- absorbs every injected
  // stall, and (b) the injected time is accounted per thread so the bench
  // can subtract it from raw latency.
  fault::Watchdog watchdog(60s, "stall rule sticky-victim binding");
  queues::MsQueue<std::uint64_t> queue(128);

  fault::FaultPlan plan;
  plan.stall_at("ms.E9", 200us);
  plan.arm();

  std::array<std::uint64_t, 3> injected{};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        const std::uint64_t before = fault::injected_stall_ns();
        for (int i = 0; i < 200; ++i) {
          while (!queue.try_enqueue(1)) std::this_thread::yield();
          std::uint64_t out = 0;
          while (!queue.try_dequeue(out)) std::this_thread::yield();
        }
        injected[static_cast<std::size_t>(t)] =
            fault::injected_stall_ns() - before;
      });
    }
  }
  EXPECT_GE(plan.hits("ms.E9"), 600u);
  int victims = 0;
  for (const std::uint64_t ns : injected) {
    if (ns > 0) ++victims;
  }
  EXPECT_EQ(victims, 1) << "stall victim binding is not sticky-unique";
  plan.disarm();
}

}  // namespace
}  // namespace msq
