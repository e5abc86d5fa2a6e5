// The repo benchmark: five queue families on three workloads.
//
//   perfbench --workload <pairs-contended|pairs-solo|handoff-open>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with every probe unarmed.
// --trace 1 arms the obs counters, times 1-in-N calls into each layer as
// spans, times the allocators and the lock from outside, and prints the
// per-layer metrics; its untraced twin slices give the tracing overhead.
// The last line of stdout is one JSON object; README.md maps every metric
// to its layer and workload.  Exit status 1 means the correctness gate
// failed (or, traced, an exact-zero count on pairs-solo did not hold).
#include <malloc.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "queues/ms_queue.hpp"
#include "queues/scq_queue.hpp"
#include "queues/segment_queue.hpp"
#include "queues/sharded_queue.hpp"
#include "queues/two_lock_queue.hpp"
#include "sync/tatas_lock.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Item = std::uint64_t;
using msq::obs::Counter;

// Every family gets the same item capacity (the sharded front end splits it
// over its four shards).  It is far above any backlog a workload builds,
// so no enqueue is refused.
constexpr std::uint32_t kCapacity = 1u << 16;

struct Family {
  const char* name;
  bool fifo;  // sharded relaxes FIFO to per-shard order: conservation only
  std::uint32_t shards;  // independent inner queues
  SliceResult (*run)(const SliceSpec&);
};

const Family kFamilies[] = {
    {"msq", true, 1, &run_slice<msq::queues::MsQueue<Item>>},
    {"two_lock", true, 1, &run_slice<msq::queues::TwoLockQueue<Item>>},
    {"segq", true, 1, &run_slice<msq::queues::SegmentQueue<Item>>},
    {"scq", true, 1, &run_slice<msq::queues::ScqQueue<Item>>},
    {"sharded", false, 4, &run_slice<msq::queues::ShardedQueue<msq::queues::MsQueue<Item>, 4>>},
};
constexpr std::size_t kF = std::size(kFamilies);

struct Workload {
  const char* name;
  Kind kind;
  std::uint32_t threads;
  std::uint32_t producers;
  double rate_per_s;
};

const Workload kWorkloads[] = {
    {"pairs-contended", Kind::kPairs, 3, 0, 0},
    {"pairs-solo", Kind::kPairs, 1, 0, 0},
    {"handoff-open", Kind::kHandoff, 3, 2, 500e3},
};

/// A closed loop on one thread: no race can be lost.
bool solo(const Workload& w) { return w.kind == Kind::kPairs && w.threads == 1; }

/// A closed loop whose threads share no cache line: one thread, or no
/// more threads than the family has shards (the slice's threads take
/// consecutive hint ordinals, so each gets a home shard of its own, and
/// every pair stays on it).  Nothing but the cores sets its pace.  The
/// host moves one core's speed by up to 30% for seconds to minutes
/// (tenants on the sibling hyperthread, frequency), so its figures are
/// scaled to a reference core: by kRefCoreCasPerUs over core_cas_per_us
/// timed on the same CPUs right after each slice.  Where threads share
/// lines, cross-core transfers set the pace, and the raw figures are the
/// steadier ones.
bool core_bound(const Workload& w, const Family& f) {
  return w.kind == Kind::kPairs && w.threads <= f.shards;
}

/// The reference core: the median core_cas_per_us of the reference host
/// (4-vCPU KVM guest on an Intel Xeon) over a calm hour.
constexpr double kRefCoreCasPerUs = 80;
constexpr std::uint64_t kCoreProbeNs = 3'000'000;

// Rounds of all five families per run.  Short slices interleave the
// families finely, so host slowdowns, which come and go over seconds, hit
// them alike.  The traced run pairs every traced slice with an untraced twin.
constexpr std::size_t kRounds = 20;
constexpr std::size_t kTracedRounds = 3;
constexpr double kMicroShare = 0.2;  // traced: share of the run for allocator/lock timing
constexpr std::uint32_t kMicroBatch = 8;

// A run is marked unsteady, never silently reported, past these bounds.
constexpr double kMaxStealShare = 0.02;
constexpr double kMaxLateShare = 0.01;

// ------------------------------------------------------------ statistics --

/// Value at quantile q of whole-number samples (nanoseconds), read as
/// grouped data the way Python's statistics.median_grouped reads it: each
/// value stands for the unit interval around it, and the quantile is
/// interpolated inside the interval that holds it.  An exact order
/// statistic would sit on the clock's integer grid and repeat from run
/// to run whenever the distribution is narrow.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  const auto k = std::min(v.size() - 1, static_cast<std::size_t>(std::max(0.0, std::ceil(rank) - 1)));
  const auto [lo, hi] = std::equal_range(v.begin(), v.end(), v[k]);
  const double below = static_cast<double>(lo - v.begin());
  const double at = static_cast<double>(hi - lo);
  return static_cast<double>(v[k]) - 0.5 + std::clamp((rank - below) / at, 0.0, 1.0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ------------------------------------------------------------ host facts --

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Workers get up to three CPUs and leave the first allowed one to the
/// main thread and the rest of the system.
std::vector<int> worker_cpus(const std::vector<int>& allowed) {
  if (allowed.size() <= 1) return allowed;
  std::vector<int> cpus(allowed.begin() + 1, allowed.end());
  if (cpus.size() > 3) cpus.erase(cpus.begin(), cpus.end() - 3);
  return cpus;
}

struct CpuTimes {
  bool ok = false;
  std::uint64_t total = 0, steal = 0;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (auto& x : f) {
    if (!(in >> x)) return t;
  }
  for (auto x : f) t.total += x;
  t.steal = f[7];
  t.ok = true;
  return t;
}

/// The process's peak resident set (VmHWM), less `bookkeeping_bytes` of
/// the benchmark's own ledgers and sample buffers.  A slice makes those
/// resident in full before its window opens and holds them until it is
/// judged, so they are part of every slice's peak at a size that depends
/// on the workload and --seconds, not on how fast the queue is.
/// getrusage's ru_maxrss would not do: it keeps the peak of the process
/// image that exec replaced, such as the launcher's interpreter.
double peak_rss_mib(std::size_t bookkeeping_bytes) {
  std::ifstream in("/proc/self/status");
  std::string key;
  double kib = 0;
  while (in >> key) {
    if (key == "VmHWM:") {
      in >> kib;
      break;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return (kib * 1024.0 - static_cast<double>(bookkeeping_bytes)) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------------ json --

std::string num(double x) {
  if (!std::isfinite(x)) x = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ------------------------------------------------------------- gathering --

/// One family's slices of one kind (traced or untraced) within a run.
struct Tally {
  std::vector<double> mpairs, sojourn_p50_us, setup_s, core_cas_per_us;
  std::vector<std::uint64_t> sojourn_ns, enq_ns, deq_ns;  // traced only
  std::array<std::uint64_t, msq::obs::kCounterCount> counters{};
  std::uint64_t ops = 0, enq_refused = 0, deq_ok = 0, deq_empty = 0;
  std::uint64_t sampled_ns = 0, wall_ns = 0;
  std::int64_t pool_hwm = 0;

  [[nodiscard]] double count(Counter c) const {
    return static_cast<double>(counters[static_cast<std::size_t>(c)]);
  }
  [[nodiscard]] double per_op(Counter c) const { return ratio(count(c), static_cast<double>(ops)); }
};

struct RunState {
  const Workload* wl = nullptr;
  bool traced = false;
  std::vector<int> cpus;
  std::vector<bool> pinned;
  Verdict verdict;
  std::uint64_t gen_checks = 0, gen_late = 0, gen_max_lag_ns = 0;
  std::vector<Span> spans;
  std::uint64_t slices = 0;
  std::size_t bookkeeping_bytes = 0;  // the most any slice held resident
};

void absorb(RunState& run, Tally& t, const SliceResult& r, bool traced) {
  run.verdict += r.verdict;
  run.bookkeeping_bytes = std::max(run.bookkeeping_bytes, r.bookkeeping_bytes);
  std::uint64_t delivered = r.drained, last_end = r.t0;
  std::vector<std::uint64_t> soj;
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    const Worker& w = r.workers[i];
    if (run.pinned.size() <= i) run.pinned.resize(i + 1, true);
    run.pinned[i] = run.pinned[i] && w.pinned;
    run.gen_checks += w.gen_checks;
    run.gen_late += w.gen_late;
    run.gen_max_lag_ns = std::max(run.gen_max_lag_ns, w.gen_max_lag_ns);
    delivered += w.deq_ok;
    last_end = std::max(last_end, w.end_ns);
    soj.insert(soj.end(), w.sojourn_ns.values().begin(), w.sojourn_ns.values().end());
    t.ops += w.enq_ok + w.deq_ok;
    t.enq_refused += w.enq_refused;
    t.deq_ok += w.deq_ok;
    t.deq_empty += w.deq_empty;
    t.sampled_ns += w.sampled_busy_ns;
    t.wall_ns += w.end_ns - r.t0;
    t.enq_ns.insert(t.enq_ns.end(), w.enq_ns.values().begin(), w.enq_ns.values().end());
    t.deq_ns.insert(t.deq_ns.end(), w.deq_ns.values().begin(), w.deq_ns.values().end());
    run.spans.insert(run.spans.end(), w.spans.begin(), w.spans.end());
  }
  t.ops += r.drained;
  t.setup_s.push_back(static_cast<double>(r.setup_ns) * 1e-9);
  double core = 0;
  for (const Worker& w : r.workers) core += w.core_cas_per_us / static_cast<double>(r.workers.size());
  t.core_cas_per_us.push_back(core);
  t.mpairs.push_back(ratio(static_cast<double>(delivered), static_cast<double>(last_end - r.t0)) * 1e3);
  t.sojourn_p50_us.push_back(quantile(soj, 0.5) * 1e-3);
  if (traced) t.sojourn_ns.insert(t.sojourn_ns.end(), soj.begin(), soj.end());
  for (std::size_t c = 0; c < t.counters.size(); ++c) t.counters[c] += r.counters.totals[c];
  t.pool_hwm = std::max(t.pool_hwm, r.pool_hwm);
  run.spans.insert(run.spans.end(), r.family_spans.begin(), r.family_spans.end());
}

SliceSpec base_spec(const RunState& run, double window_s) {
  SliceSpec s;
  s.kind = run.wl->kind;
  s.threads = run.wl->threads;
  s.producers = run.wl->producers;
  s.rate_per_s = run.wl->rate_per_s;
  s.window_ns = static_cast<std::uint64_t>(window_s * 1e9);
  s.capacity = kCapacity;
  s.cpus = run.cpus;
  return s;
}

SliceResult run_family(RunState& run, const Family& f, SliceSpec spec, std::uint64_t seed, bool traced) {
  spec.seed = seed;
  spec.fifo = f.fifo;
  spec.core_probe_ns = core_bound(*run.wl, f) ? kCoreProbeNs : 0;
  spec.traced = traced;
  spec.family = f.name;
  spec.span_base = 8 * (++run.slices);
  return f.run(spec);
}

// ------------------------------------------------- allocator/lock timing --

struct MicroNode {
  msq::mem::ValueCell<Item> value;
  msq::tagged::AtomicTagged next;
};

/// Time `body` (one allocate+free or lock+unlock pair) from outside on
/// `threads` pinned threads, in batches of kMicroBatch; returns the ns of
/// every batch.
std::vector<std::uint64_t> time_pairs(std::uint32_t threads, double window_s, const std::vector<int>& cpus,
                               const std::function<void()>& body) {
  std::vector<std::vector<std::uint64_t>> per(threads);  // filled at thread exit
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::uint64_t deadline = 0;
  {
    std::vector<std::jthread> ts;
    for (std::uint32_t i = 0; i < threads; ++i) {
      ts.emplace_back([&, i] {
        if (!cpus.empty()) pin_self(cpus[i % cpus.size()]);
        ready.fetch_add(1, std::memory_order_release);
        std::vector<std::uint64_t> mine;
        while (!go.load(std::memory_order_acquire)) msq::port::cpu_relax();
        for (;;) {
          const std::uint64_t a = now_ns();
          if (a >= deadline) break;
          for (std::uint32_t k = 0; k < kMicroBatch; ++k) body();
          mine.push_back(now_ns() - a);
        }
        per[i] = std::move(mine);
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) std::this_thread::yield();
    deadline = now_ns() + static_cast<std::uint64_t>(window_s * 1e9);
    go.store(true, std::memory_order_release);
  }
  std::vector<std::uint64_t> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void micro_metrics(std::vector<Metric>& out, double window_s, const std::vector<int>& cpus) {
  constexpr std::uint32_t kNodes = 256;
  for (const std::uint32_t threads : {1u, 3u}) {
    const std::string t = ".t" + std::to_string(threads);
    {
      msq::mem::NodePool<MicroNode> pool(kNodes);
      msq::mem::FreeList<MicroNode> list(pool);
      const auto v = time_pairs(threads, window_s, cpus, [&] {
        const std::uint32_t i = list.try_allocate();
        if (i != msq::tagged::kNullIndex) list.free(i);
      });
      out.push_back({"mem.freelist" + t + ".pair_ns_p50", quantile(v, 0.5) / kMicroBatch, "ns"});
      out.push_back({"mem.freelist" + t + ".pair_ns_p99", quantile(v, 0.99) / kMicroBatch, "ns"});
    }
    {
      // The magazine configuration SegmentQueue ships with.
      msq::mem::NodePool<MicroNode> pool(kNodes);
      msq::queues::SegmentMagazine<MicroNode> mag(pool);
      const auto v = time_pairs(threads, window_s, cpus, [&] {
        const std::uint32_t i = mag.try_allocate();
        if (i != msq::tagged::kNullIndex) mag.free(i);
      });
      out.push_back({"mem.magazine" + t + ".pair_ns_p50", quantile(v, 0.5) / kMicroBatch, "ns"});
      out.push_back({"mem.magazine" + t + ".pair_ns_p99", quantile(v, 0.99) / kMicroBatch, "ns"});
    }
    {
      msq::sync::TatasLock lock;
      const auto v = time_pairs(threads, window_s, cpus, [&] {
        lock.lock();
        lock.unlock();
      });
      out.push_back({"sync.tatas" + t + ".acquire_ns_p50", quantile(v, 0.5) / kMicroBatch, "ns"});
      out.push_back({"sync.tatas" + t + ".acquire_ns_p99", quantile(v, 0.99) / kMicroBatch, "ns"});
    }
  }
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && a.seconds <= 120 &&
         (a.trace == 0 || a.trace == 1);
}

void write_spans(const std::string& path, const std::vector<Span>& spans, std::uint64_t origin) {
  std::ofstream f(path);
  for (const Span& s : spans) {
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
      << ",\"name\":\"" << s.name;
    if (s.op != nullptr) f << '.' << s.op;
    f << "\",\"start_ns\":" << (s.start_ns - origin) << ",\"end_ns\":" << (s.end_ns - origin) << "}\n";
  }
}

int run_main(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  RunState run;
  run.wl = wl;
  run.traced = args.trace == 1;
  const std::vector<int> allowed = allowed_cpus();
  run.cpus = worker_cpus(allowed);
  // Set-up, draining and judging run on the CPU the workers leave free.
  const bool main_pinned = !allowed.empty() && pin_self(allowed.front());
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  const CpuTimes cpu0 = read_cpu_times();
  const std::uint64_t origin = now_ns();
  msq::port::Xoshiro256 seeds(args.seed);
  // The seed fixes the arrival schedules and the order families run in
  // each round; closed-loop items are sequence numbers.
  const std::size_t rotate = args.seed % kF;
  std::array<Tally, kF> plain{}, traced{};
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  if (!run.traced) {
    const SliceSpec spec = base_spec(run, args.seconds / (kF * kRounds));
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t k = 0; k < kF; ++k) {
        const std::size_t f = (rotate + r + k) % kF;
        const SliceResult res = run_family(run, kFamilies[f], spec, seeds(), false);
        absorb(run, plain[f], res, false);
      }
    }
  } else {
    const SliceSpec spec =
        base_spec(run, args.seconds * (1 - kMicroShare) / (kF * kTracedRounds * 2));
    for (std::size_t r = 0; r < kTracedRounds; ++r) {
      for (std::size_t k = 0; k < kF; ++k) {
        const std::size_t f = (rotate + r + k) % kF;
        const std::uint64_t seed = seeds();
        for (int half = 0; half < 2; ++half) {
          const bool on = (half + r) % 2 == 1;  // alternate which twin runs first
          const SliceResult res = run_family(run, kFamilies[f], spec, seed, on);
          absorb(run, on ? traced[f] : plain[f], res, on);
        }
      }
    }
  }

  // ---- end-to-end ----
  if (!run.traced) {
    for (std::size_t f = 0; f < kF; ++f) {
      const std::string n = kFamilies[f].name;
      const Tally& t = plain[f];
      std::vector<double> mpairs = t.mpairs, sojourn = t.sojourn_p50_us;
      if (core_bound(*wl, kFamilies[f])) {
        for (std::size_t i = 0; i < mpairs.size(); ++i) {
          const double speed = ratio(t.core_cas_per_us[i], kRefCoreCasPerUs);
          mpairs[i] = ratio(mpairs[i], speed);
          sojourn[i] *= speed;
        }
      }
      metrics.push_back({n + ".mpairs_s", median(mpairs), "Mpairs/s"});
      metrics.push_back({n + ".sojourn_p50_us", median(sojourn), "us"});
    }
    std::vector<double> setup;
    for (const Tally& t : plain) setup.insert(setup.end(), t.setup_s.begin(), t.setup_s.end());
    metrics.push_back({"setup_s", median(setup), "s"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(run.bookkeeping_bytes), "MiB"});
  } else {
    // ---- per layer ----
    double overhead = 0;
    for (std::size_t f = 0; f < kF; ++f) {
      const std::string n = kFamilies[f].name;
      const Tally& t = traced[f];
      metrics.push_back({n + ".enq_ns_p50", quantile(t.enq_ns, 0.5), "ns"});
      metrics.push_back({n + ".enq_ns_p99", quantile(t.enq_ns, 0.99), "ns"});
      metrics.push_back({n + ".deq_ns_p50", quantile(t.deq_ns, 0.5), "ns"});
      metrics.push_back({n + ".deq_ns_p99", quantile(t.deq_ns, 0.99), "ns"});
      // Each sampled call stands for kSampleEvery calls.
      metrics.push_back({n + ".queue_busy_share",
                         ratio(static_cast<double>(t.sampled_ns * kSampleEvery),
                               static_cast<double>(t.wall_ns)),
                         "share"});
      metrics.push_back({n + ".deq_empty_share",
                         ratio(static_cast<double>(t.deq_empty),
                               static_cast<double>(t.deq_empty + t.deq_ok)),
                         "share"});
      metrics.push_back({n + ".enq_refuse_per_op",
                         ratio(static_cast<double>(t.enq_refused), static_cast<double>(t.ops)),
                         "count/op"});
      metrics.push_back({n + ".pool_hwm_nodes", static_cast<double>(t.pool_hwm), "nodes"});
      metrics.push_back({n + ".sojourn_p99_us", quantile(t.sojourn_ns, 0.99) * 1e-3, "us"});
      overhead += wl->kind == Kind::kPairs
                      ? 1 - ratio(median(t.mpairs), median(plain[f].mpairs))
                      : ratio(median(t.sojourn_p50_us), median(plain[f].sojourn_p50_us)) - 1;
    }
    const Tally& ms = traced[0];
    const Tally& tl = traced[1];
    const Tally& sg = traced[2];
    const Tally& sc = traced[3];
    const Tally& sh = traced[4];
    metrics.push_back({"msq.cas_fail_per_op", ms.per_op(Counter::kCasFail), "count/op"});
    metrics.push_back({"segq.cas_fail_per_op", sg.per_op(Counter::kCasFail), "count/op"});
    metrics.push_back({"scq.cas_fail_per_op", sc.per_op(Counter::kCasFail), "count/op"});
    metrics.push_back({"msq.backoff_spins_per_op", ms.per_op(Counter::kBackoffWait), "count/op"});
    metrics.push_back({"scq.catchup_per_op", sc.per_op(Counter::kScqCatchup), "count/op"});
    metrics.push_back(
        {"scq.threshold_reset_per_op", sc.per_op(Counter::kScqThresholdReset), "count/op"});
    metrics.push_back({"sharded.steal_share",
                       ratio(sh.count(Counter::kShardSteal),
                             sh.count(Counter::kShardSteal) + sh.count(Counter::kShardHit)),
                       "share"});
    metrics.push_back({"sharded.empty_rescan_per_op", sh.per_op(Counter::kEmptyRescan), "count/op"});
    metrics.push_back({"sharded.rehome_per_op", sh.per_op(Counter::kShardRehome), "count/op"});
    metrics.push_back({"msq.pool_cas_retry_per_op", ms.per_op(Counter::kPoolCasRetry), "count/op"});
    metrics.push_back({"segq.pool_cas_retry_per_op", sg.per_op(Counter::kPoolCasRetry), "count/op"});
    metrics.push_back(
        {"sharded.pool_cas_retry_per_op", sh.per_op(Counter::kPoolCasRetry), "count/op"});
    metrics.push_back({"segq.mag_hit_share",
                       ratio(sg.count(Counter::kMagHit),
                             sg.count(Counter::kMagHit) + sg.count(Counter::kMagRefill)),
                       "share"});
    metrics.push_back({"segq.mag_refill_per_op", sg.per_op(Counter::kMagRefill), "count/op"});
    metrics.push_back({"segq.seg_close_per_op", sg.per_op(Counter::kSegClose), "count/op"});
    metrics.push_back({"two_lock.lock_spin_per_acquire",
                       ratio(tl.count(Counter::kLockSpin), tl.count(Counter::kLockAcquire)),
                       "count/acquire"});
    micro_metrics(metrics, args.seconds * kMicroShare / 6, run.cpus);
    metrics.push_back({"trace.overhead_share", overhead / kF, "share"});

    if (solo(*wl)) {
      // With one thread no race can be lost: these counts are exactly 0.
      const std::pair<const char*, double> zero[] = {
          {"msq cas_fail", ms.count(Counter::kCasFail)},
          {"segq cas_fail", sg.count(Counter::kCasFail)},
          {"scq cas_fail", sc.count(Counter::kCasFail)},
          {"msq pool_cas_retry", ms.count(Counter::kPoolCasRetry)},
          {"two_lock lock_spin", tl.count(Counter::kLockSpin)},
      };
      for (const auto& [what, n] : zero) {
        if (n != 0) problems.push_back(std::string(what) + " = " + num(n) + " on one thread, expected 0");
      }
    }
  }

  const CpuTimes cpu1 = read_cpu_times();
  const double steal = cpu0.ok && cpu1.ok ? ratio(static_cast<double>(cpu1.steal - cpu0.steal),
                                                  static_cast<double>(cpu1.total - cpu0.total))
                                          : 0;
  const double late = ratio(static_cast<double>(run.gen_late), static_cast<double>(run.gen_checks));
  if (run.traced) {
    metrics.push_back({"gen.late_share", late, "share"});
    metrics.push_back({"gen.max_lag_us", static_cast<double>(run.gen_max_lag_ns) * 1e-3, "us"});
    metrics.push_back({"gen.steal_share", steal, "share"});
  }

  std::vector<std::string> unsteady;
  if (!cpu0.ok || !cpu1.ok) unsteady.push_back("steal time unreadable from /proc/stat");
  if (steal > kMaxStealShare) unsteady.push_back("steal share " + num(steal) + " > " + num(kMaxStealShare));
  if (late > kMaxLateShare) {
    unsteady.push_back("generator late (> " + num(kLateNs * 1e-3) + " us) on share " + num(late) +
                       " of arrivals/checks > " + num(kMaxLateShare));
  }
  if (run.cpus.size() < wl->threads) unsteady.push_back("fewer free CPUs than worker threads");
  for (std::size_t i = 0; i < run.pinned.size(); ++i) {
    if (!run.pinned[i]) unsteady.push_back("thread " + std::to_string(i) + " pin failed");
  }

  const Verdict& v = run.verdict;
  if (v.failed() != 0) {
    problems.push_back("gate: lost " + std::to_string(v.lost) + ", duplicated " +
                       std::to_string(v.duplicated) + ", fabricated " + std::to_string(v.fabricated) +
                       ", out of order " + std::to_string(v.out_of_order) + ", shed " +
                       std::to_string(v.shed));
  }
  const bool correct = problems.empty();

  // ---- host facts and the record ----
  std::ostringstream host;
  host << "{\"nproc\":" << nproc << ",\"allowed_cpus\":" << allowed.size() << ",\"worker_cpus\":[";
  for (std::size_t i = 0; i < run.cpus.size(); ++i) host << (i ? "," : "") << run.cpus[i];
  host << "],\"main_pinned\":" << (main_pinned ? "true" : "false") << ",\"pinned\":[";
  for (std::size_t i = 0; i < run.pinned.size(); ++i) host << (i ? "," : "") << (run.pinned[i] ? "true" : "false");
  host << "],\"steal_share\":" << num(steal) << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
       << ",\"msq_probes\":" << MSQ_PROBES << ",\"seed\":" << args.seed
       << ",\"seconds\":" << num(args.seconds) << ",\"capacity\":" << kCapacity
       << ",\"threads\":" << wl->threads << ",\"producers\":" << wl->producers
       << ",\"offered_per_s\":" << num(wl->rate_per_s) << ",\"gen_late_share\":" << num(late)
       << ",\"gen_max_lag_us\":" << num(static_cast<double>(run.gen_max_lag_ns) * 1e-3)
       << ",\"slices\":" << run.slices
       << ",\"bookkeeping_mib\":" << num(static_cast<double>(run.bookkeeping_bytes) / (1024.0 * 1024.0)) << "}";

  std::printf("# perfbench workload=%s seed=%llu seconds=%s trace=%d\n", wl->name,
              static_cast<unsigned long long>(args.seed), num(args.seconds).c_str(), args.trace);
  std::printf("# host %s\n", host.str().c_str());
  std::printf("# gate attempted=%llu failed=%llu\n", static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed()));
  for (const auto& p : problems) std::printf("# FAILED: %s\n", p.c_str());
  if (unsteady.empty()) {
    std::printf("# steady\n");
  } else {
    for (const auto& u : unsteady) std::printf("# UNSTEADY: %s\n", u.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::ostringstream js;
  js << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << v.attempted
     << ",\"failed\":" << v.failed() << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? "," : "") << quote(metrics[i].name) << ":{\"value\":" << num(metrics[i].value)
       << ",\"unit\":" << quote(metrics[i].unit) << "}";
  }
  js << "}}";

  if (!args.out.empty()) {
    const std::string stem = args.out + "/" + wl->name + "-seed" + std::to_string(args.seed) +
                             "-trace" + std::to_string(args.trace);
    std::ofstream rec(stem + ".json");
    rec << "{\"host\":" << host.str() << ",\"unsteady\":[";
    for (std::size_t i = 0; i < unsteady.size(); ++i) rec << (i ? "," : "") << quote(unsteady[i]);
    rec << "],\"problems\":[";
    for (std::size_t i = 0; i < problems.size(); ++i) rec << (i ? "," : "") << quote(problems[i]);
    rec << "],\"slices\":{";
    for (std::size_t f = 0; f < kF; ++f) {
      const auto list = [&](const std::vector<double>& xs) {
        std::string o = "[";
        for (std::size_t i = 0; i < xs.size(); ++i) {
          if (i) o += ',';
          o += num(xs[i]);
        }
        return o + "]";
      };
      rec << (f ? "," : "") << quote(kFamilies[f].name) << ":{\"setup_s\":" << list(plain[f].setup_s)
          << ",\"core_cas_per_us\":" << list(plain[f].core_cas_per_us) << ",\"mpairs_s\":" << list(plain[f].mpairs)
          << ",\"sojourn_p50_us\":" << list(plain[f].sojourn_p50_us) << "}";
    }
    rec << "},\"result\":" << js.str() << "}\n";
    if (run.traced) {
      run.spans.push_back(Span{kWorkloadSpan, 0, 0, wl->name, nullptr, origin, now_ns()});
      write_spans(stem + "-spans.jsonl", run.spans, origin);
    }
  }
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed threshold (the default one moves up after large frees) makes
  // every large buffer its own mapping, returned when freed, so the peak
  // RSS is what one slice holds at once rather than heap left over from
  // earlier slices.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run_main(args);
}
