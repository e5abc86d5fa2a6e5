// Regression tests for the SHAPE of the paper's evaluation (section 4) on
// the simulated multiprocessor: who wins, roughly by how much, and where
// the crossovers fall.  These are the claims of Figures 3-5 and the
// conclusions section, encoded as assertions:
//
//  F3.a  "In all three graphs, the new non-blocking queue outperforms all
//         of the other alternatives when three or more processors are
//         active."
//  F3.b  "The two-lock algorithm outperforms the one-lock algorithm when
//         more than 5 processors are active on a dedicated system."
//  F3.c  PLJ is the best previous non-blocking alternative but slower than
//         MS (it checks two shared variables rather than one).
//  F3.d  With one processor, the single lock is (a little) fastest.
//  F4/5.a "The blocking algorithms fare much worse in the presence of
//         multiprogramming" -- non-blocking beats blocking heavily.
//  F4/5.b "The degree of performance degradation increases with the level
//         of multiprogramming."
//
// Absolute numbers depend on the cost model; the assertions use ratios and
// orderings only, and the final test sweeps cost parameters to show the
// orderings are not an artefact of one parameter choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/workload.hpp"

namespace msq::sim {
namespace {

constexpr std::uint64_t kPairs = 20'000;

double net_time(Algo algo, std::uint32_t processors,
                std::uint32_t procs_per_processor = 1,
                const CostParams& cost = {}, std::uint64_t seed = 1) {
  SimRunConfig config;
  config.algo = algo;
  config.processors = processors;
  config.procs_per_processor = procs_per_processor;
  config.total_pairs = kPairs;
  config.cost = cost;
  config.seed = seed;
  const SimRunResult result = run_sim_workload(config);
  return result.net;
}

TEST(Figure3Shape, MsWinsFromThreeProcessorsUp) {
  // MC is excluded here: our FAS-list reconstruction of TR 229 (one swap +
  // one store per enqueue vs. the MS queue's two CASes) is legitimately
  // ~13-22% FASTER than MS on the dedicated simulator, unlike the curve in
  // the paper's Figure 3.  See EXPERIMENTS.md "Deviations".  The paper's
  // load-bearing MC claims -- blocking semantics and preemption
  // vulnerability -- are asserted in sim_liveness_test and
  // McPaysForBlockingUnderFrequentPreemption below.
  for (const std::uint32_t p : {3u, 6u, 9u, 12u}) {
    const double ms = net_time(Algo::kMs, p);
    for (const Algo other : {Algo::kSingleLock, Algo::kValois, Algo::kTwoLock,
                             Algo::kPlj}) {
      EXPECT_LT(ms, net_time(other, p) * 1.05)
          << "MS lost to " << algo_name(other) << " at p=" << p;
    }
  }
}

TEST(Figure3Shape, TwoLockBeatsSingleLockOnBusyDedicatedMachine) {
  // Crossover "when more than 5 processors are active".
  for (const std::uint32_t p : {8u, 12u}) {
    EXPECT_LT(net_time(Algo::kTwoLock, p), net_time(Algo::kSingleLock, p))
        << "two-lock should win at p=" << p;
  }
}

TEST(Figure3Shape, PljBeatsValoisButLosesToMs) {
  for (const std::uint32_t p : {6u, 12u}) {
    const double ms = net_time(Algo::kMs, p);
    const double plj = net_time(Algo::kPlj, p);
    const double valois = net_time(Algo::kValois, p);
    EXPECT_LT(plj, valois) << "PLJ should beat Valois at p=" << p;
    EXPECT_LT(ms, plj * 1.05) << "MS should beat PLJ at p=" << p;
  }
}

TEST(Figure3Shape, SingleLockIsCompetitiveAtOneProcessor) {
  // "For a queue that is usually accessed by only one or two processors, a
  // single lock will run a little faster."  Allow a generous band: the
  // single lock must be within 1.5x of the best algorithm at p=1, and MS
  // must not beat it by more than that.
  const double single = net_time(Algo::kSingleLock, 1);
  const double ms = net_time(Algo::kMs, 1);
  EXPECT_LT(single, ms * 1.10)
      << "single lock should be at least as fast as MS at p=1";
}

TEST(Figure45Shape, NonBlockingBeatsBlockingUnderMultiprogramming) {
  // 2 processes per processor (Figure 4), p = 6 processors.  MS and PLJ
  // must beat both lock-based algorithms outright; Valois -- "even a
  // comparatively inefficient non-blocking algorithm" -- must beat the
  // single lock (it trades places with the two-lock queue in our model;
  // see EXPERIMENTS.md "Deviations").
  for (const Algo nonblocking : {Algo::kMs, Algo::kPlj}) {
    const double nb = net_time(nonblocking, 6, 2);
    for (const Algo blocking : {Algo::kSingleLock, Algo::kTwoLock}) {
      const double b = net_time(blocking, 6, 2);
      EXPECT_LT(nb, b) << algo_name(nonblocking) << " should beat "
                       << algo_name(blocking) << " under multiprogramming";
    }
  }
  for (const std::uint32_t level : {2u, 3u}) {
    EXPECT_LT(net_time(Algo::kValois, 6, level),
              net_time(Algo::kSingleLock, 6, level))
        << "Valois should beat the single lock at multiprogramming level "
        << level;
  }
}

/// Median over seeds 1..kSeeds of net(p=6, level 3) / net(p=6, level 1).
double median_degradation(Algo algo) {
  constexpr std::uint64_t kSeeds = 12;
  std::vector<double> ratios;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ratios.push_back(net_time(algo, 6, 3, {}, seed) /
                     net_time(algo, 6, 1, {}, seed));
  }
  std::sort(ratios.begin(), ratios.end());
  return (ratios[kSeeds / 2 - 1] + ratios[kSeeds / 2]) / 2;
}

TEST(Figure45Shape, McPaysForBlockingUnderFrequentPreemption) {
  // The MC queue's weakness is its swap->link window: a process preempted
  // inside it stalls every dequeuer until it runs again.  The paper's axis
  // is the multiprogramming level (Figures 4 and 5): from dedicated to
  // three processes per processor, the blocking MC queue must degrade
  // clearly more than the non-blocking MS queue.  One seed is one draw of
  // where the preemptions land, so the ratio is the median over seeds.
  const double mc = median_degradation(Algo::kMc);
  const double ms = median_degradation(Algo::kMs);
  EXPECT_GT(mc, ms * 1.3)
      << "multiprogramming must hurt the blocking MC queue more (median "
      << "level-3/level-1 net time, mc: " << mc << ", ms: " << ms << ")";
}

TEST(Figure45Shape, BlockingDegradationGrowsWithMultiprogrammingLevel) {
  // Lock-based slowdown from dedicated -> 2/processor -> 3/processor grows;
  // non-blocking stays within a modest factor.
  const double lock1 = net_time(Algo::kSingleLock, 6, 1);
  const double lock2 = net_time(Algo::kSingleLock, 6, 2);
  const double lock3 = net_time(Algo::kSingleLock, 6, 3);
  EXPECT_GT(lock2, lock1 * 1.5) << "preemption should hurt the single lock";
  EXPECT_GT(lock3, lock2) << "more multiprogramming, more degradation";

  const double ms1 = net_time(Algo::kMs, 6, 1);
  const double ms3 = net_time(Algo::kMs, 6, 3);
  const double ms_degradation = ms3 / ms1;
  const double lock_degradation = lock3 / lock1;
  EXPECT_GT(lock_degradation, ms_degradation * 2)
      << "blocking must degrade much faster than non-blocking";
}

TEST(FigureShapes, OrderingsAreRobustAcrossCostModels) {
  // The qualitative result must not be an artefact of the default tariffs:
  // sweep the miss/hit ratio and the RMW premium.
  std::vector<CostParams> models;
  {
    CostParams cheap_miss;
    cheap_miss.read_miss = 20;
    cheap_miss.write_miss = 22;
    cheap_miss.rmw_miss = 25;
    models.push_back(cheap_miss);
  }
  {
    CostParams dear_miss;
    dear_miss.read_miss = 120;
    dear_miss.write_miss = 130;
    dear_miss.rmw_miss = 150;
    models.push_back(dear_miss);
  }
  {
    CostParams dear_rmw;
    dear_rmw.rmw_owned = 20;
    dear_rmw.rmw_miss = 100;
    models.push_back(dear_rmw);
  }
  for (std::size_t m = 0; m < models.size(); ++m) {
    const double ms = net_time(Algo::kMs, 8, 1, models[m]);
    const double single = net_time(Algo::kSingleLock, 8, 1, models[m]);
    const double two = net_time(Algo::kTwoLock, 8, 1, models[m]);
    EXPECT_LT(ms, single) << "model " << m;
    EXPECT_LT(ms, two) << "model " << m;
    EXPECT_LT(two, single) << "model " << m;
  }
}

}  // namespace
}  // namespace msq::sim
