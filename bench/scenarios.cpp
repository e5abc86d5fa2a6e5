// Open-loop production-traffic scenario suite (EXPERIMENTS.md A8).
//
// Runs the src/scenario presets (steady / ramp / burst100 / hotskew /
// worksteal) against the queue families (msq / segq / shard4 / ring),
// open-loop: producers pace a pre-generated virtual-time arrival
// schedule, consumers drain with a per-item service cost, bounded-queue
// refusals go through the shed-or-retry policy, and every sojourn sample
// is measured from the op's SCHEDULED arrival (coordinated-omission-safe;
// see src/scenario/driver.hpp).  Each (preset, family) run ends in an SLO
// verdict: p99 / p99.9 sojourn and shed rate judged against the preset's
// targets.
//
// Output: one table row per (preset, family) plus --json writing
// BENCH_scenarios.json, schema "msq-scenarios-v1" (the scenario extension
// of msq-bench-v1; validated by tools/check_bench_json.py, which also
// carries a --self-test for these keys).
//
// Flags (all optional):
//   --ops N            offered arrivals per run          (default 20000)
//   --rate-scale X     multiply every preset base rate   (default 1.0)
//   --presets a,b,...  subset by name                    (default: all)
//   --families a,b,... subset by name                    (default: all)
//   --seed S           arrival-schedule seed             (default 1)
//   --pin              pin producer/consumer threads round-robin
//   --json             write BENCH_scenarios.json
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "harness/calibrate.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "queues/queues.hpp"
#include "scenario/arrival.hpp"
#include "scenario/driver.hpp"
#include "scenario/presets.hpp"
#include "scenario/slo.hpp"

namespace msq::bench {
namespace {

struct Config {
  std::uint64_t ops = 20'000;
  double rate_scale = 1.0;
  std::vector<std::string> presets;   // empty = all
  std::vector<std::string> families;  // empty = all
  std::uint64_t seed = 1;
  bool pin = false;
  bool json = false;
  std::string json_path = "BENCH_scenarios.json";
};

struct ScenarioOutcome {
  std::string scenario;
  std::string algo;
  std::uint32_t producers = 0;
  std::uint32_t consumers = 0;
  std::uint32_t capacity = 0;
  double arrival_rate = 0;  // mean offered Hz
  scenario::OpenLoopResult run;
  scenario::SloSpec slo_spec;
  scenario::SloVerdict slo;
  obs::Snapshot counters;
};

template <typename Q>
scenario::OpenLoopResult run_family(const scenario::ScenarioPreset& preset,
                                    const scenario::ArrivalSchedule& schedule,
                                    const Config& config) {
  Q queue(preset.capacity);
  scenario::OpenLoopConfig loop;
  loop.consumers = preset.consumers;
  loop.shed = preset.shed;
  loop.service_iters = harness::spin_iters_for_us(preset.service_us);
  loop.pin_threads = config.pin;
  // A paced run legitimately lasts the schedule horizon; a wedged one must
  // abort loudly with the scenario name, not hang the suite.
  loop.watchdog_deadline = std::chrono::milliseconds(
      30'000 + 20 * (schedule.horizon_ns / 1'000'000));
  return scenario::run_open_loop(queue, schedule, loop);
}

using RunFn = scenario::OpenLoopResult (*)(const scenario::ScenarioPreset&,
                                           const scenario::ArrivalSchedule&,
                                           const Config&);

struct Family {
  std::string name;
  RunFn run;
};

std::vector<Family> make_families() {
  using Seg = queues::SegmentQueue<std::uint64_t>;
  return {
      {"msq", &run_family<queues::MsQueue<std::uint64_t>>},
      {"segq", &run_family<Seg>},
      {"shard4", &run_family<queues::ShardedQueue<Seg, 4>>},
      {"ring", &run_family<queues::RingQueue<std::uint64_t>>},
  };
}

bool wanted(const std::vector<std::string>& filter, const std::string& name) {
  return filter.empty() ||
         std::find(filter.begin(), filter.end(), name) != filter.end();
}

bool parse_list(const char* arg, std::vector<std::string>& out) {
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) out.push_back(token);
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return !out.empty();
}

bool parse_args(int argc, char** argv, Config& config) {
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--ops") == 0) {
      const char* v = need_value("--ops");
      if (v == nullptr) return false;
      config.ops = std::strtoull(v, nullptr, 10);
      if (config.ops == 0) {
        std::cerr << "--ops must be positive\n";
        return false;
      }
    } else if (std::strcmp(argv[i], "--rate-scale") == 0) {
      const char* v = need_value("--rate-scale");
      if (v == nullptr) return false;
      config.rate_scale = std::strtod(v, nullptr);
      if (!(config.rate_scale > 0)) {
        std::cerr << "--rate-scale must be positive\n";
        return false;
      }
    } else if (std::strcmp(argv[i], "--presets") == 0) {
      const char* v = need_value("--presets");
      if (v == nullptr || !parse_list(v, config.presets)) return false;
    } else if (std::strcmp(argv[i], "--families") == 0) {
      const char* v = need_value("--families");
      if (v == nullptr || !parse_list(v, config.families)) return false;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = need_value("--seed");
      if (v == nullptr) return false;
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      config.pin = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json = true;
    } else {
      std::cerr << "unknown flag " << argv[i]
                << " (--ops/--rate-scale/--presets/--families/--seed/"
                   "--pin/--json)\n";
      return false;
    }
  }
  return true;
}

void print_table(const std::vector<ScenarioOutcome>& outcomes) {
  std::cout << "\nopen-loop scenario suite  [real threads; sojourn measured "
               "from SCHEDULED arrival]\n";
  std::cout << std::left << std::setw(11) << "scenario" << std::setw(8)
            << "algo" << std::right << std::setw(9) << "offered"
            << std::setw(9) << "enq" << std::setw(7) << "shed" << std::setw(10)
            << "shed_rate" << std::setw(10) << "p50_us" << std::setw(11)
            << "p99_us" << std::setw(11) << "p999_us" << std::setw(11)
            << "max_lag_us" << std::setw(9) << "verdict" << "\n";
  for (const ScenarioOutcome& o : outcomes) {
    std::cout << std::left << std::setw(11) << o.scenario << std::setw(8)
              << o.algo << std::right << std::setw(9) << o.run.offered
              << std::setw(9) << o.run.enqueued << std::setw(7) << o.run.shed
              << std::setw(10) << std::fixed << std::setprecision(4)
              << o.run.shed_rate() << std::setw(10) << std::setprecision(1)
              << static_cast<double>(o.run.sojourn_ns.percentile(50.0)) / 1e3
              << std::setw(11)
              << static_cast<double>(o.slo.p99_ns) / 1e3 << std::setw(11)
              << static_cast<double>(o.slo.p999_ns) / 1e3 << std::setw(11)
              << static_cast<double>(o.run.max_lag_ns) / 1e3 << std::setw(9)
              << o.slo.verdict() << "\n";
  }
  std::cout << std::defaultfloat;
}

void write_json(const Config& config,
                const std::vector<ScenarioOutcome>& outcomes) {
  std::ofstream out(config.json_path);
  if (!out) {
    std::cerr << "cannot open " << config.json_path << " for writing\n";
    return;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema");
  w.value("msq-scenarios-v1");
  w.key("title");
  w.value("open-loop production-traffic scenario suite");
  w.key("ops");
  w.value(config.ops);
  w.key("rate_scale");
  w.value(config.rate_scale);
  w.key("seed");
  w.value(config.seed);
  w.key("probes_enabled");
  w.value(static_cast<bool>(MSQ_OBS));
  w.key("scenarios");
  w.begin_array();
  for (const ScenarioOutcome& o : outcomes) {
    const std::uint64_t ops_total = o.run.offered + o.run.dequeued;
    w.begin_object();
    w.key("scenario");
    w.value(o.scenario);
    w.key("algo");
    w.value(o.algo);
    w.key("producers");
    w.value(static_cast<std::uint64_t>(o.producers));
    w.key("consumers");
    w.value(static_cast<std::uint64_t>(o.consumers));
    w.key("capacity");
    w.value(static_cast<std::uint64_t>(o.capacity));
    w.key("arrival_rate");
    w.value(o.arrival_rate);
    w.key("offered_load");
    w.value(o.run.offered);
    w.key("enqueued");
    w.value(o.run.enqueued);
    w.key("dequeued");
    w.value(o.run.dequeued);
    w.key("shed");
    w.value(o.run.shed);
    w.key("shed_retries");
    w.value(o.run.retries);
    w.key("shed_rate");
    w.value(o.run.shed_rate());
    w.key("elapsed_seconds");
    w.value(o.run.elapsed_seconds);
    w.key("max_lag_ns");
    w.value(o.run.max_lag_ns);
    w.key("sojourn_p50_ns");
    w.value(o.run.sojourn_ns.percentile(50.0));
    w.key("sojourn_p99_ns");
    w.value(o.slo.p99_ns);
    w.key("sojourn_p999_ns");
    w.value(o.slo.p999_ns);
    w.key("sojourn_max_ns");
    w.value(o.run.sojourn_ns.max());
    w.key("slo");
    w.begin_object();
    w.key("p99_ns_max");
    w.value(o.slo_spec.p99_ns_max);
    w.key("p999_ns_max");
    w.value(o.slo_spec.p999_ns_max);
    w.key("shed_rate_max");
    w.value(o.slo_spec.shed_rate_max);
    w.key("p99_ok");
    w.value(o.slo.p99_ok);
    w.key("p999_ok");
    w.value(o.slo.p999_ok);
    w.key("shed_ok");
    w.value(o.slo.shed_ok);
    w.end_object();
    w.key("slo_verdict");
    w.value(o.slo.verdict());
    w.key("counters");
    obs::write_counters_json(w, o.counters, ops_total);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  std::cout << "wrote " << config.json_path << '\n';
}

int run(const Config& config) {
  obs::reset();
  obs::arm();
#if !MSQ_PROBES
  std::cerr << "scenarios: built with MSQ_PROBES=0 -- shed/queue_full "
               "counters are compiled out (shed totals in the JSON come "
               "from the driver and remain exact)\n";
#endif

  const std::vector<scenario::ScenarioPreset> presets =
      scenario::builtin_presets(config.ops, config.rate_scale);
  const std::vector<Family> families = make_families();

  std::vector<ScenarioOutcome> outcomes;
  for (const scenario::ScenarioPreset& preset : presets) {
    if (!wanted(config.presets, preset.name)) continue;
    const scenario::ArrivalSchedule schedule =
        scenario::generate_arrivals(preset.arrival, config.seed);
    for (const Family& family : families) {
      if (!wanted(config.families, family.name)) continue;
      std::cerr << "[scenarios] " << preset.name << " x " << family.name
                << " (offered " << schedule.ops << " ops @ "
                << schedule.offered_rate_hz << " Hz)\n";
      const obs::Snapshot before = obs::snapshot();
      ScenarioOutcome o;
      o.scenario = preset.name;
      o.algo = family.name;
      o.producers = preset.arrival.producers;
      o.consumers = preset.consumers;
      o.capacity = preset.capacity;
      o.arrival_rate = schedule.offered_rate_hz;
      o.run = family.run(preset, schedule, config);
      o.counters = obs::snapshot() - before;
      o.slo_spec = preset.slo;
      o.slo = scenario::evaluate_slo(preset.slo, o.run.sojourn_ns,
                                     o.run.offered, o.run.shed);
      outcomes.push_back(std::move(o));
    }
  }
  if (outcomes.empty()) {
    std::cerr << "no (preset, family) pairs selected -- check --presets/"
                 "--families spelling\n";
    return 1;
  }
  print_table(outcomes);
  if (config.json) write_json(config, outcomes);
  return 0;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
  msq::bench::Config config;
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run(config);
}
