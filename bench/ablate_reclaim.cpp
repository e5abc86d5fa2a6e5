// Ablation A3: memory-reclamation strategy for the MS queue.
//
//   counted+freelist -- the paper's scheme (MsQueue): pool indices with
//                       modification counters, Treiber free list.
//   dwcas+freelist   -- the same MsQueue on the 128-bit cmpxchg16b word
//                       (tagged::AtomicTagged128): the paper's other
//                       stated option.
//   hazard           -- hazard pointers + new/delete (MsQueueHp): the
//                       modern successor, no counters needed.
//
// Reports real-thread throughput of the paper's loop at 1, 2, 4 and 8
// threads; thread counts above the host's core count measure the
// multiprogrammed regime.
#include <cstring>
#include <iostream>

#include "harness/calibrate.hpp"
#include "harness/driver.hpp"
#include "harness/table.hpp"
#include "queues/ms_queue.hpp"
#include "queues/ms_queue_hp.hpp"

namespace {

template <typename Q>
double pairs_per_second(Q& queue, std::uint32_t threads, std::uint64_t pairs) {
  msq::harness::WorkloadConfig config;
  config.threads = threads;
  config.total_pairs = pairs;
  config.other_work_iters = msq::harness::spin_iters_for_us(1.0);
  const auto result = msq::harness::run_workload(queue, config);
  return static_cast<double>(pairs) / result.elapsed_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t pairs = 200'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pairs") == 0 && i + 1 < argc) {
      pairs = std::strtoull(argv[++i], nullptr, 10);
    }
  }

  msq::harness::SeriesTable table(
      "Ablation A3: MS queue reclamation schemes "
      "[pairs/second, real threads, higher is better]",
      "threads");
  const std::size_t counted = table.add_series("counted+freelist");
  const std::size_t dwcas = table.add_series("dwcas+freelist");
  const std::size_t hazard = table.add_series("hazard");

  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    table.add_row(threads);
    {
      msq::queues::MsQueue<std::uint64_t> q(threads * 4 + 64);
      table.set(counted, pairs_per_second(q, threads, pairs));
    }
    {
      msq::queues::MsQueue<std::uint64_t, msq::sync::Backoff, msq::mem::FreeList,
                           msq::tagged::AtomicTagged128>
          q(threads * 4 + 64);
      table.set(dwcas, pairs_per_second(q, threads, pairs));
    }
    {
      msq::queues::MsQueueHp<std::uint64_t> q;
      table.set(hazard, pairs_per_second(q, threads, pairs));
    }
  }
  table.print(std::cout);
  return 0;
}
