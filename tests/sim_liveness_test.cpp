// Liveness tests replaying the paper's section 3.3 argument in the
// simulator: stall one process at a labelled pseudo-code line and observe
// whether the others can still complete operations.
//
//  * MS queue: non-blocking -- a process frozen anywhere (even between its
//    successful E9 link and the E13 tail swing) cannot prevent others from
//    completing unbounded numbers of operations.
//  * Two-lock queue: blocking -- freezing a lock holder stalls that end of
//    the queue, but the OTHER end keeps going (the algorithm's concurrency
//    claim); the single-lock queue stalls everything.
//  * MC queue: lock-free but blocking -- freezing an enqueuer inside its
//    claimed-slot window eventually stalls dequeuers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"

namespace msq::sim {
namespace {

struct OpCounts {
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;  // successful only
  std::uint64_t empty = 0;
};

void endless_pairs(Proc& p, SimQueue& queue, std::uint32_t producer,
                   OpCounts& counts) {
  for (std::uint64_t i = 0;; ++i) {
    const bool enqueued =
        queue.enqueue(p, (std::uint64_t{producer} << 40) | i);
    if (enqueued) ++counts.enqueues;
    const std::uint64_t got = queue.dequeue(p);
    if (got != kEmpty) {
      ++counts.dequeues;
    } else {
      ++counts.empty;
    }
  }
}

void one_enqueue(Proc& p, SimQueue& queue, std::uint64_t value) {
  queue.enqueue(p, value);
}

void endless_dequeues(Proc& p, SimQueue& queue, OpCounts& counts) {
  for (;;) {
    const std::uint64_t got = queue.dequeue(p);
    if (got != kEmpty) {
      ++counts.dequeues;
    } else {
      ++counts.empty;
    }
  }
}

void endless_enqueues(Proc& p, SimQueue& queue, std::uint32_t producer,
                      OpCounts& counts) {
  for (std::uint64_t i = 0;; ++i) {
    const bool ok = queue.enqueue(p, (std::uint64_t{producer} << 40) | i);
    if (ok) ++counts.enqueues;
  }
}

void n_enqueues(Proc& p, SimQueue& queue, std::uint32_t producer,
                std::uint64_t n, OpCounts& counts) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool ok = queue.enqueue(p, (std::uint64_t{producer} << 40) | i);
    if (ok) ++counts.enqueues;
  }
}

/// Freeze process `victim` at `label`, then run `steps` random steps and
/// report how many operations the OTHER processes completed.
struct StallResult {
  OpCounts others;
  bool victim_frozen = false;
};

StallResult run_with_stall(Algo algo, const char* label, std::uint64_t steps,
                           std::uint64_t seed = 7) {
  EngineConfig config;
  config.seed = seed;
  Engine engine(config);
  auto queue = make_sim_queue(algo, engine, 64);
  // Keep a non-trivial queue so dequeues have work to do.
  {
    auto preload = [&](Proc& p) { return one_enqueue(p, *queue, 1); };
    const auto id = engine.spawn(0, preload);
    while (engine.step(id)) {
    }
  }

  static OpCounts victim_counts;  // victim's ops are irrelevant
  victim_counts = OpCounts{};
  StallResult result;
  const auto victim = engine.spawn(0, [&](Proc& p) {
    return endless_pairs(p, *queue, 0, victim_counts);
  });
  engine.freeze_at_label(victim, label);
  for (std::uint32_t t = 1; t <= 2; ++t) {
    engine.spawn(0, [&, t](Proc& p) {
      return endless_pairs(p, *queue, t, result.others);
    });
  }
  for (std::uint64_t i = 0; i < steps; ++i) {
    if (!engine.step_random()) break;
  }
  result.victim_frozen = !engine.done(victim) && engine.label(victim) == std::string(label);
  return result;
}

// --- MS queue: non-blocking at every labelled stall point -------------------

class MsStallPoint : public ::testing::TestWithParam<const char*> {};

// E12 and D9 (the helping paths) are reached only when the victim happens
// to OBSERVE a lagging tail; they get directed coverage below instead of
// relying on a random schedule to produce the observation.
INSTANTIATE_TEST_SUITE_P(AllLines, MsStallPoint,
                         ::testing::Values("ms.E5.tail_load", "ms.E9.link_cas",
                                           "ms.E13.tail_swing", "ms.D2.head_load",
                                           "ms.D12.head_swing"));

TEST_P(MsStallPoint, OthersMakeUnboundedProgressWhileVictimStalled) {
  const StallResult result = run_with_stall(Algo::kMs, GetParam(), 30'000);
  EXPECT_TRUE(result.victim_frozen)
      << "victim never reached " << GetParam() << " -- stall not exercised";
  // Non-blocking (paper 3.3): hundreds of completed ops while one process
  // is suspended mid-operation.
  EXPECT_GT(result.others.enqueues, 100u);
  EXPECT_GT(result.others.dequeues, 100u);
}

TEST(MsLiveness, StallBetweenLinkAndTailSwingIsHelped) {
  // The crucial window: the victim has linked its node (E9 succeeded) but
  // never swings Tail (frozen at E13).  Others must fix Tail themselves
  // (E12/D9 helping) and keep completing BOTH kinds of operations.
  const StallResult result = run_with_stall(Algo::kMs, "ms.E13.tail_swing", 30'000);
  ASSERT_TRUE(result.victim_frozen);
  EXPECT_GT(result.others.enqueues, 100u);
  EXPECT_GT(result.others.dequeues, 100u);
}

void one_dequeue(Proc& p, SimQueue& queue, std::uint64_t& out) {
  out = queue.dequeue(p);
}

TEST(MsLiveness, HelpingPathsE12AndD9AreReachedAndComplete) {
  // Directed construction of the lagging-tail state: enqueuer A freezes at
  // E13 having linked its node but not swung Tail.  Then:
  //  * dequeuer B must pass through D9 (help Tail) and still dequeue A's
  //    value -- even though A never finished its operation;
  //  * enqueuer C must pass through E12 (help Tail) and complete its own
  //    enqueue behind A's node.
  EngineConfig config;
  config.seed = 3;
  Engine engine(config);
  auto queue = make_sim_queue(Algo::kMs, engine, 16);

  OpCounts a_counts;
  const auto a = engine.spawn(0, [&](Proc& p) {
    return endless_enqueues(p, *queue, 7, a_counts);
  });
  engine.freeze_at_label(a, "ms.E13.tail_swing");
  while (engine.step(a)) {
    if (std::string(engine.label(a)) == "ms.E13.tail_swing") break;
  }
  ASSERT_EQ(std::string(engine.label(a)), "ms.E13.tail_swing");
  ASSERT_EQ(a_counts.enqueues, 0u) << "A must be mid-FIRST-enqueue";

  // B: dequeue must traverse D9.
  std::uint64_t b_got = kEmpty;
  const auto b = engine.spawn(0, [&](Proc& p) {
    return one_dequeue(p, *queue, b_got);
  });
  engine.freeze_at_label(b, "ms.D9.tail_help");
  while (!engine.done(b) && engine.step(b)) {
    if (std::string(engine.label(b)) == "ms.D9.tail_help") break;
  }
  EXPECT_EQ(std::string(engine.label(b)), "ms.D9.tail_help")
      << "dequeuer did not observe the lagging tail";
  engine.freeze_at_label(b, nullptr);
  engine.unfreeze(b);
  while (engine.step(b)) {
  }
  EXPECT_EQ(b_got, (std::uint64_t{7} << 40) | 0) << "B must get A's value";

  // Rebuild the lag with A's next enqueue?  A is still frozen at its first
  // E13 (the CAS is still pending); instead let C observe the NEW lag made
  // by freezing another enqueuer.
  OpCounts d_counts;
  const auto d = engine.spawn(0, [&](Proc& p) {
    return endless_enqueues(p, *queue, 8, d_counts);
  });
  engine.freeze_at_label(d, "ms.E13.tail_swing");
  while (engine.step(d)) {
    if (std::string(engine.label(d)) == "ms.E13.tail_swing") break;
  }
  ASSERT_EQ(std::string(engine.label(d)), "ms.E13.tail_swing");

  OpCounts c_counts;
  const auto c = engine.spawn(0, [&](Proc& p) {
    return endless_enqueues(p, *queue, 9, c_counts);
  });
  engine.freeze_at_label(c, "ms.E12.tail_help");
  for (int i = 0; i < 10'000 && std::string(engine.label(c)) != "ms.E12.tail_help"; ++i) {
    if (!engine.step(c)) break;
  }
  EXPECT_EQ(std::string(engine.label(c)), "ms.E12.tail_help")
      << "enqueuer did not observe the lagging tail";
  engine.freeze_at_label(c, nullptr);
  engine.unfreeze(c);
  for (int i = 0; i < 10'000 && c_counts.enqueues == 0; ++i) {
    if (!engine.step(c)) break;
  }
  EXPECT_GT(c_counts.enqueues, 0u)
      << "helper C must complete its own enqueue past the stalled D";
}

// --- PLJ and Valois: also non-blocking --------------------------------------

TEST(PljLiveness, StalledLinkerDoesNotBlockOthers) {
  const StallResult result = run_with_stall(Algo::kPlj, "plj.link_cas", 30'000);
  ASSERT_TRUE(result.victim_frozen);
  EXPECT_GT(result.others.enqueues, 100u);
  EXPECT_GT(result.others.dequeues, 100u);
}

TEST(ValoisLiveness, StalledLinkerDoesNotBlockOthers) {
  const StallResult result = run_with_stall(Algo::kValois, "valois.link_cas", 60'000);
  ASSERT_TRUE(result.victim_frozen);
  EXPECT_GT(result.others.enqueues, 50u);
  EXPECT_GT(result.others.dequeues, 50u);
}

// --- the blocking side ------------------------------------------------------

TEST(SingleLockLiveness, StalledLockHolderBlocksEveryone) {
  const StallResult result = run_with_stall(Algo::kSingleLock, "singlelock.alloc_top_read",
                                            30'000);
  ASSERT_TRUE(result.victim_frozen);
  // Others can neither enqueue nor dequeue: the lock never comes back.
  EXPECT_EQ(result.others.enqueues, 0u);
  EXPECT_EQ(result.others.dequeues, 0u);
}

TEST(TwoLockLiveness, StalledTailHolderBlocksEnqueuersOnly) {
  // Freeze a victim that holds T_lock.  Build the scenario explicitly:
  // dedicated enqueuers and dequeuers so we can tell the two ends apart.
  EngineConfig config;
  config.seed = 11;
  Engine engine(config);
  auto queue = make_sim_queue(Algo::kTwoLock, engine, 64);
  // Preload several items so dequeuers are not starved by emptiness; the
  // preloader runs to completion (and thus holds no lock afterwards).
  {
    OpCounts preload_counts;
    const auto id = engine.spawn(0, [&](Proc& p) {
      return n_enqueues(p, *queue, 9, 20, preload_counts);
    });
    while (engine.step(id)) {
    }
    ASSERT_GT(preload_counts.enqueues, 10u);
  }

  OpCounts victim_counts, enq_counts, deq_counts;
  const auto victim = engine.spawn(0, [&](Proc& p) {
    return endless_enqueues(p, *queue, 0, victim_counts);
  });
  engine.freeze_at_label(victim, "twolock.E5.tail_read");
  engine.spawn(0, [&](Proc& p) { return endless_enqueues(p, *queue, 1, enq_counts); });
  engine.spawn(0, [&](Proc& p) { return endless_dequeues(p, *queue, deq_counts); });
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    if (!engine.step_random()) break;
  }
  EXPECT_EQ(enq_counts.enqueues, 0u) << "T_lock was released somehow";
  EXPECT_GT(deq_counts.dequeues, 10u)
      << "dequeuers should proceed: the whole point of two locks";
}

TEST(TwoLockLiveness, StalledHeadHolderBlocksDequeuersOnly) {
  EngineConfig config;
  config.seed = 13;
  Engine engine(config);
  auto queue = make_sim_queue(Algo::kTwoLock, engine, 64);
  OpCounts victim_counts, enq_counts, deq_counts;
  // Victim dequeues forever; freeze it while it holds H_lock.
  const auto victim = engine.spawn(0, [&](Proc& p) {
    return endless_dequeues(p, *queue, victim_counts);
  });
  // Give it something to dequeue so the head-lock window is reached with work in hand.
  const auto feeder = engine.spawn(0, [&](Proc& p) {
    return endless_enqueues(p, *queue, 5, enq_counts);
  });
  (void)feeder;
  engine.freeze_at_label(victim, "twolock.D2.head_read");
  OpCounts other_deq;
  engine.spawn(0, [&](Proc& p) { return endless_dequeues(p, *queue, other_deq); });
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    if (!engine.step_random()) break;
  }
  EXPECT_EQ(other_deq.dequeues, 0u) << "H_lock was released somehow";
  EXPECT_GT(enq_counts.enqueues, 10u)
      << "enqueuers should proceed while a dequeuer is stalled";
}

TEST(McLiveness, StalledLinkerEventuallyBlocksDequeuers) {
  // Freeze an enqueuer between its fetch_and_store of Tail and the link
  // write; dequeuers chew through earlier items, reach the broken link,
  // and wait forever -- never observing "empty" (Tail has moved on).
  EngineConfig config;
  config.seed = 17;
  Engine engine(config);
  auto queue = make_sim_queue(Algo::kMc, engine, 8);
  OpCounts victim_counts, deq_counts;
  const auto victim = engine.spawn(0, [&](Proc& p) {
    return endless_enqueues(p, *queue, 0, victim_counts);
  });
  // Drive the victim directly into the mid-link window BEFORE the dequeuer
  // exists (otherwise early dequeues legitimately observe a truly empty
  // queue).
  engine.freeze_at_label(victim, "mc.link_store");
  while (engine.step(victim)) {
    if (std::string(engine.label(victim)) == "mc.link_store") break;
  }
  ASSERT_EQ(std::string(engine.label(victim)), "mc.link_store");
  engine.spawn(0, [&](Proc& p) { return endless_dequeues(p, *queue, deq_counts); });
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    if (!engine.step_random()) break;
  }
  // The victim stalls mid-link on its FIRST enqueue, so the dequeuer can
  // never complete one -- and must not report empty either (the blocking
  // distinction from a correct empty result).
  EXPECT_EQ(victim_counts.enqueues, 0u);
  EXPECT_EQ(deq_counts.dequeues, 0u) << "dequeuer was not blocked";
  EXPECT_EQ(deq_counts.empty, 0u)
      << "a mid-link stall must read as 'wait', never as 'empty'";
}

}  // namespace
}  // namespace msq::sim
