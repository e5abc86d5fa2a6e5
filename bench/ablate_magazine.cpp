// Magazine ablation (EXPERIMENTS.md): the same queue algorithms with the
// per-thread magazine layer on vs off, on real threads.
//
// The magazine layer (src/mem/magazine.hpp) batches free-list traffic:
// allocations are served from a thread-cached stack of node indices and the
// shared Treiber top is touched once per ~kCap/2 operations instead of once
// per operation.  The claim under test is that this removes free-list CAS
// retries (obs counter pool_cas_retry) and with them the coherence traffic
// that makes the 1996 free list a second contention hotspot next to the
// queue itself.
//
// Series (all real threads; sweep 1..max_procs):
//   msq        MsQueue + shared FreeList            (the paper's layout)
//   msq+mag    MsQueue + MagazineAllocator<_, 32>
//   segq-nomag SegmentQueue + shared FreeList
//   segq       SegmentQueue + its default magazines
//
// Flags are the common fig set (fig_common.hpp): --pairs/--max-procs/
// --seed/--pin/--csv/--json.  --json writes BENCH_ablate_magazine.json
// (schema msq-bench-v1, validated by tools/check_bench_json.py).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "harness/calibrate.hpp"
#include "harness/driver.hpp"
#include "harness/table.hpp"
#include "mem/freelist.hpp"
#include "mem/magazine.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "queues/queues.hpp"
#include "sync/backoff.hpp"

namespace msq::bench {
namespace {

template <typename Node>
using Mag32 = mem::MagazineAllocator<Node, 32>;

using MsqPlain = queues::MsQueue<std::uint64_t>;
using MsqMag = queues::MsQueue<std::uint64_t, sync::Backoff, Mag32>;
using SegPlain = queues::SegmentQueue<std::uint64_t, mem::FreeList>;
using SegMag = queues::SegmentQueue<std::uint64_t>;

struct SweepPoint {
  std::uint32_t procs = 0;
  double net_seconds_per_million = 0;
  std::uint64_t ops = 0;
  std::uint64_t empty_dequeues = 0;
  std::uint64_t enqueue_failures = 0;
  obs::Snapshot counters;
};

struct SweepSeries {
  std::string algo;
  std::vector<SweepPoint> points;
};

template <typename Q>
harness::WorkloadResult run_one(std::uint32_t threads,
                                const FigConfig& config) {
  harness::WorkloadConfig wc;
  wc.threads = threads;
  wc.total_pairs = config.pairs;
  wc.pin_threads = config.pin;
  wc.other_work_iters = harness::spin_iters_for_us(6.0);  // paper: ~6us
  Q queue(threads * 4 + 64);
  return harness::run_workload(queue, wc);
}

using RunFn = harness::WorkloadResult (*)(std::uint32_t, const FigConfig&);

constexpr struct {
  const char* name;
  RunFn run;
} kVariants[] = {
    {"msq", &run_one<MsqPlain>},
    {"msq+mag", &run_one<MsqMag>},
    {"segq-nomag", &run_one<SegPlain>},
    {"segq", &run_one<SegMag>},
};

/// The counters that tell the ablation story, printed per operation so the
/// on/off columns are directly comparable at every thread count.
void print_counter_tables(const FigConfig& config,
                          const std::vector<SweepSeries>& series) {
  const struct {
    obs::Counter counter;
    const char* title;
  } kTables[] = {
      // Every pool_get is a successful CAS on the shared Treiber top -- a
      // guaranteed cache-line transfer even when it does not retry.  With
      // more threads than cores a retry needs a peer preempted inside the
      // tiny load-to-CAS window, so pool_get is the robust proxy there;
      // pool_cas_retry shows the same collapse once cores run in parallel.
      {obs::Counter::kPoolGet,
       "shared free-list acquisitions per operation (coherence transfers)"},
      {obs::Counter::kPoolCasRetry,
       "free-list CAS retries per operation (the ablated hotspot)"},
      {obs::Counter::kMagHit, "magazine hits per operation"},
      {obs::Counter::kMagRefill, "magazine batch refills per operation"},
  };
  for (const auto& spec : kTables) {
    harness::SeriesTable table(std::string(spec.title) + "  [real]", "procs");
    std::vector<std::size_t> cols;
    cols.reserve(series.size());
    for (const SweepSeries& s : series) cols.push_back(table.add_series(s.algo));
    const std::size_t rows = series.empty() ? 0 : series.front().points.size();
    for (std::size_t r = 0; r < rows; ++r) {
      table.add_row(series.front().points[r].procs);
      for (std::size_t a = 0; a < series.size(); ++a) {
        const SweepPoint& p = series[a].points[r];
        table.set(cols[a], p.counters.per_op(spec.counter, p.ops));
      }
    }
    if (config.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }
}

void write_json(const FigConfig& config,
                const std::vector<SweepSeries>& all_series) {
  std::ofstream out(config.json_path);
  if (!out) {
    std::cerr << "cannot open " << config.json_path << " for writing\n";
    return;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema");
  w.value("msq-bench-v1");
  w.key("title");
  w.value(config.title);
  w.key("pairs");
  w.value(config.pairs);
  w.key("max_procs");
  w.value(config.max_procs);
  w.key("procs_per_processor");
  w.value(config.procs_per_processor);
  w.key("seed");
  w.value(config.seed);
  w.key("backoff_max");
  w.value(config.backoff_max);
  w.key("probes_enabled");
  w.value(static_cast<bool>(MSQ_OBS));
  w.key("series");
  w.begin_array();
  for (const SweepSeries& s : all_series) {
    w.begin_object();
    w.key("algo");
    w.value(s.algo);
    w.key("source");
    w.value("real");
    w.key("points");
    w.begin_array();
    for (const SweepPoint& p : s.points) {
      w.begin_object();
      w.key("procs");
      w.value(static_cast<std::uint64_t>(p.procs));
      w.key("net_seconds_per_million_pairs");
      w.value(p.net_seconds_per_million);
      const double net_actual =
          p.net_seconds_per_million * static_cast<double>(config.pairs) / 1e6;
      w.key("throughput_pairs_per_sec");
      w.value(net_actual > 0 ? static_cast<double>(config.pairs) / net_actual
                             : 0.0);
      w.key("ops");
      w.value(p.ops);
      w.key("empty_dequeues");
      w.value(p.empty_dequeues);
      w.key("enqueue_failures");
      w.value(p.enqueue_failures);
      w.key("counters");
      obs::write_counters_json(w, p.counters, p.ops);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  std::cout << "wrote " << config.json_path << '\n';
}

int run(const FigConfig& config) {
  obs::reset();
  obs::arm();

  harness::SeriesTable table(
      config.title + "  [real threads; net seconds per 10^6 pairs]",
      "threads");
  std::vector<std::size_t> cols;
  std::vector<SweepSeries> series(std::size(kVariants));
  for (std::size_t a = 0; a < std::size(kVariants); ++a) {
    cols.push_back(table.add_series(kVariants[a].name));
    series[a].algo = kVariants[a].name;
  }

  const double scale = 1e6 / static_cast<double>(config.pairs);
  for (std::uint32_t threads = 1; threads <= config.max_procs; ++threads) {
    table.add_row(threads);
    for (std::size_t a = 0; a < std::size(kVariants); ++a) {
      const obs::Snapshot before = obs::snapshot();
      const harness::WorkloadResult result =
          kVariants[a].run(threads, config);
      table.set(cols[a], result.net_seconds * scale);

      SweepPoint point;
      point.procs = threads;
      point.net_seconds_per_million = result.net_seconds * scale;
      point.ops = result.enqueues + result.dequeues + result.empty_dequeues +
                  result.enqueue_failures;
      point.empty_dequeues = result.empty_dequeues;
      point.enqueue_failures = result.enqueue_failures;
      point.counters = obs::snapshot() - before;
      series[a].points.push_back(point);
    }
  }
  if (config.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  print_counter_tables(config, series);
  if (config.json) write_json(config, series);
  return 0;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
  msq::bench::FigConfig config;
  config.title = "magazine ablation: thread-cached node allocation on/off";
  config.json_path = "BENCH_ablate_magazine.json";
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run(config);
}
