// Tail latency under a stalled thread (EXPERIMENTS.md A7): what one
// delayed thread does to item sojourn in the lock-free MS queue, the FAA
// segment queue and the sharded front end.
//
// One thread -- the fault layer's sticky victim -- sleeps a fixed duration
// every time it reaches its queue's critical CAS window (the paper's
// "process delayed", scaled from a cache miss to a page fault to a
// descheduled quantum).  Every item carries its submission timestamp, and
// the consumer records the SOJOURN (submit -> dequeue) into per-thread
// histograms.  Sojourn, not call latency, is where progress guarantees
// become measurable:
//
//   msq    the victim stalls between reading Tail and its E9 link CAS; its
//          item does not exist in shared memory yet, so NOBODY can help --
//          that item's sojourn grows by the full stall, and p99.9 tracks
//          the stall duration.  Sleeping on EVERY E9 hit is unbounded
//          starvation, not a latency experiment: each sleep guarantees a
//          running peer moved Tail, so the victim's CAS loses, it re-reads,
//          sleeps again, and never completes an enqueue while any peer
//          keeps operating.  (Before src/mem/freelist.hpp made per-node
//          link tags monotone, tag reuse let those stale CASes "succeed"
//          by ABA -- corruption masquerading as progress.)  The shipped
//          configuration stalls alternate hits (stall_at every=2) so each
//          victim operation absorbs ~one stall and terminates.
//   segq   same shape at the pre-reservation window ("segq.faa_enq").
//          NOT at "segq.fill": a sticky stall between the ticket FAA and
//          the fill CAS is a kill-retry storm -- every sleep ends with the
//          reserved slot already killed by an impatient dequeuer, the
//          enqueuer re-tickets, sleeps, is killed again, forever.  The
//          system stays lock-free (the killers progress) but the victim's
//          enqueue literally never completes; the run cannot terminate.
//          That unbounded single-thread starvation is itself a headline
//          result (see EXPERIMENTS.md A7), it just cannot be a bench
//          configuration.
//   shard4 the sharded front end isolates THROUGHPUT (other producers'
//          shards flow on), but the victim's own item still waits out the
//          stall inside its shard.
//
// Series are named "<algo>+stall<D>us", one full procs sweep each (schema
// msq-bench-v1; the per-point p99_ns/p999_ns fields are validated by
// tools/check_bench_json.py).  The injected sleep itself is accounted via
// fault::injected_stall_ns() and reported per point, so runs are
// comparable and the victim's stall budget is visible next to the damage
// it did (or failed to do).
//
// Flags: the common fig set (--pairs/--max-procs/--seed/--pin/--csv/
// --json) plus
//   --stalls D1,D2,...   stall durations in MICROSECONDS (default
//                        0,1000; 0 = unstalled baseline; up to 10000)
//   --only NAME          run a single variant (msq/segq/shard4);
//                        bisection and CI smoke runs
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "fig_common.hpp"
#include "harness/calibrate.hpp"
#include "harness/table.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "queues/queues.hpp"
#include "scenario/stamped_loop.hpp"

namespace msq::bench {
namespace {

constexpr std::uint64_t kMaxStallUs = 10'000;

struct StallPoint {
  std::uint32_t procs = 0;
  double net_seconds_per_million = 0;
  std::uint64_t ops = 0;
  std::uint64_t empty_dequeues = 0;
  std::uint64_t enqueue_failures = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  std::uint64_t injected_ns = 0;  // victim sleep actually delivered
  obs::Snapshot counters;
};

struct StallSeries {
  std::string algo;
  std::vector<StallPoint> points;
};

/// One stalled point: arm the fault plan around the SHARED stamped pair
/// loop (scenario::run_stamped_pairs -- the run-until-all-quota shape,
/// stamping convention, and sojourn recording live there now, common to
/// fig_stall, fig_sharded, and the open-loop driver's closed-loop
/// companion).  This bench keeps only what is its own: the sticky-victim
/// stall choreography and the generous watchdog budget it requires.
template <typename Q>
scenario::StampedLoopResult run_stall(const char* site, std::uint32_t threads,
                                      std::uint64_t stall_us,
                                      const FigConfig& config) {
  Q queue(threads * 4 + 64);

  fault::FaultPlan plan;
  if (stall_us > 0) {
    // every=2 (alternate hits): sleeping on EVERY hit of a retry-loop site
    // is unbounded starvation for the lock-free queues -- each sleep lets a
    // peer invalidate the read the pending CAS depends on, so the victim
    // re-arrives at the site forever and its operation never completes
    // (see the header; FaultPlan::stall_at documents the general rule).
    // On alternate hits each victim operation absorbs ~one stall and
    // terminates, which is the measurable regime.
    plan.stall_at(site, std::chrono::microseconds(stall_us), /*skip=*/0,
                  /*every=*/2);
    plan.arm();
  }

  // Generous deadline: the victim sleeps on every window hit, so a stalled
  // run legitimately takes ~ (pairs/threads) * stall on top of the work.
  const auto deadline =
      std::chrono::milliseconds(60'000 + config.pairs * stall_us / 250);
  fault::Watchdog watchdog(deadline, "fig_stall run");

  scenario::StampedLoopConfig loop;
  loop.threads = threads;
  loop.pairs = config.pairs;
  loop.think_iters = harness::spin_iters_for_us(6.0);  // paper's ~6us
  loop.pin_threads = config.pin;
  scenario::StampedLoopResult result =
      scenario::run_stamped_pairs(queue, loop);
  plan.disarm();
  return result;
}

using RunFn = scenario::StampedLoopResult (*)(const char*, std::uint32_t,
                                              std::uint64_t,
                                              const FigConfig&);

struct Variant {
  std::string name;
  const char* site;  // the CAS window the sticky victim sleeps in
  RunFn run;
};

std::vector<Variant> make_variants() {
  return {
      {"msq", "ms.E9", &run_stall<queues::MsQueue<std::uint64_t>>},
      // segq.fill would livelock under a sticky stall (see header); the
      // pre-reservation window measures the same item-invisibility effect.
      {"segq", "segq.faa_enq", &run_stall<queues::SegmentQueue<std::uint64_t>>},
      {"shard4", "ms.E9",
       &run_stall<queues::ShardedQueue<queues::MsQueue<std::uint64_t>, 4>>},
  };
}

/// Parse "--only NAME" out of argv (and remove it) before the common
/// parser runs; empty = all variants.
bool extract_only(int& argc, char** argv, std::string& out) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--only") != 0) continue;
    if (i + 1 >= argc) {
      std::cerr << "--only needs a variant name (msq/segq/shard4)\n";
      return false;
    }
    out = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return true;
  }
  return true;
}

/// Parse "--stalls 0,1000" out of argv (and remove it) before the common
/// parser runs; durations are microseconds.
bool extract_stalls(int& argc, char** argv, std::vector<std::uint64_t>& out) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stalls") != 0) continue;
    if (i + 1 >= argc) {
      std::cerr << "--stalls needs a comma-separated us list (e.g. 0,1000)\n";
      return false;
    }
    const char* p = argv[i + 1];
    while (*p != '\0') {
      char* end = nullptr;
      const unsigned long us = std::strtoul(p, &end, 10);
      if (end == p || us > kMaxStallUs) {
        std::cerr << "--stalls: bad duration in '" << argv[i + 1]
                  << "' (0.." << kMaxStallUs << " us)\n";
        return false;
      }
      out.push_back(us);
      p = (*end == ',') ? end + 1 : end;
    }
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return true;
  }
  out = {0, 1000};
  return true;
}

void print_tables(const FigConfig& config,
                  const std::vector<StallSeries>& all_series) {
  const struct {
    const char* title;
    std::uint64_t StallPoint::* field;
  } kTables[] = {
      {"p99 item sojourn, ns (submit -> dequeue)", &StallPoint::p99_ns},
      {"p99.9 item sojourn, ns (the stall-victim's items live here)",
       &StallPoint::p999_ns},
      {"injected victim sleep, ns (stall budget actually delivered)",
       &StallPoint::injected_ns},
  };
  for (const auto& spec : kTables) {
    harness::SeriesTable table(std::string(spec.title) + "  [real]", "procs");
    std::vector<std::size_t> cols;
    cols.reserve(all_series.size());
    for (const StallSeries& s : all_series) {
      cols.push_back(table.add_series(s.algo));
    }
    const std::size_t rows =
        all_series.empty() ? 0 : all_series.front().points.size();
    for (std::size_t r = 0; r < rows; ++r) {
      table.add_row(all_series.front().points[r].procs);
      for (std::size_t a = 0; a < all_series.size(); ++a) {
        table.set(cols[a],
                  static_cast<double>(all_series[a].points[r].*(spec.field)));
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
                const std::vector<StallSeries>& all_series) {
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
  for (const StallSeries& s : all_series) {
    w.begin_object();
    w.key("algo");
    w.value(s.algo);
    w.key("source");
    w.value("real");
    w.key("points");
    w.begin_array();
    for (const StallPoint& p : s.points) {
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
      w.key("p99_ns");
      w.value(p.p99_ns);
      w.key("p999_ns");
      w.value(p.p999_ns);
      w.key("injected_stall_ns");
      w.value(p.injected_ns);
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

int run(const FigConfig& config, const std::vector<std::uint64_t>& stalls,
        const std::string& only) {
  obs::reset();
  obs::arm();
#if !MSQ_PROBES
  std::cerr << "fig_stall: built with MSQ_PROBES=0 -- the fault sites are "
               "compiled out, every stall duration degenerates to 0\n";
#endif

  std::vector<Variant> variants = make_variants();
  if (!only.empty()) {
    std::erase_if(variants,
                  [&](const Variant& v) { return v.name != only; });
    if (variants.empty()) {
      std::cerr << "--only: unknown variant '" << only << "'\n";
      return 1;
    }
  }
  std::vector<StallSeries> all_series;
  all_series.reserve(variants.size() * stalls.size());
  for (const Variant& v : variants) {
    for (const std::uint64_t us : stalls) {
      all_series.push_back(
          {v.name + "+stall" + std::to_string(us) + "us", {}});
    }
  }

  const double scale = 1e6 / static_cast<double>(config.pairs);
  for (std::uint32_t threads = 1; threads <= config.max_procs; ++threads) {
    std::size_t series_idx = 0;
    for (const Variant& v : variants) {
      for (const std::uint64_t us : stalls) {
        // Progress to stderr BEFORE each run: a watchdog abort then names
        // the run it fired in (breadcrumbs alone accumulate across runs).
        std::cerr << "[fig_stall] " << v.name << " stall=" << us
                  << "us procs=" << threads << "\n";
        // Discarded warmup (same rationale as fig_sharded: first run of a
        // row absorbs cache/scheduler warmup).  Warm up unstalled -- the
        // warmup exists for the memory system, not the fault layer.
        (void)v.run(v.site, threads, 0, config);
        const obs::Snapshot before = obs::snapshot();
        const scenario::StampedLoopResult r =
            v.run(v.site, threads, us, config);

        StallPoint point;
        point.procs = threads;
        point.net_seconds_per_million = r.elapsed_seconds * scale;
        point.ops = r.enqueues + r.dequeues + r.empty_dequeues +
                    r.enqueue_failures;
        point.empty_dequeues = r.empty_dequeues;
        point.enqueue_failures = r.enqueue_failures;
        point.p99_ns = r.sojourn_ns.percentile(99.0);
        point.p999_ns = r.sojourn_ns.percentile(99.9);
        point.injected_ns = r.injected_stall_ns;
        point.counters = obs::snapshot() - before;
        all_series[series_idx++].points.push_back(point);
      }
    }
    std::cout << "swept procs=" << threads << "\n";
  }
  print_tables(config, all_series);
  if (config.json) write_json(config, all_series);
  return 0;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
  std::vector<std::uint64_t> stalls;
  std::string only;
  if (!msq::bench::extract_only(argc, argv, only)) return 1;
  if (!msq::bench::extract_stalls(argc, argv, stalls)) return 1;
  msq::bench::FigConfig config;
  config.title = "item sojourn tail latency vs injected stalls";
  config.json_path = "BENCH_stall.json";
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run(config, stalls, only);
}
