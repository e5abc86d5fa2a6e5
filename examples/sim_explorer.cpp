// Drive the simulated multiprocessor interactively from the command line:
// replay the paper's liveness arguments (section 3.3) by stalling a process
// at a chosen pseudo-code line and watching who still makes progress.
//
//   ./build/examples/sim_explorer        # default: MS, stall ms.E13.tail_swing
//   ./build/examples/sim_explorer ms ms.E9.link_cas
//   ./build/examples/sim_explorer two-lock twolock.E5.tail_read
//   ./build/examples/sim_explorer single-lock singlelock.alloc_top_read
//   ./build/examples/sim_explorer mc mc.link_store
//
// Labels: every queue is the shipped code (sim/shipped.hpp), so a label is
// the site name one of its accesses passes, e.g. MS ms.E5.tail_load
// ms.E9.link_cas ms.E12.tail_help ms.E13.tail_swing ms.D2.head_load
// ms.D9.tail_help ms.D12.head_swing (or any fl.* site); two-lock
// twolock.E5.tail_read twolock.D2.head_read; single-lock
// singlelock.alloc_top_read singlelock.deq_head_read; mc mc.link_store
// mc.head_cas; plj plj.link_cas plj.head_cas; valois valois.link_cas.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"

namespace {

using msq::sim::Algo;
using msq::sim::Engine;
using msq::sim::kEmpty;
using msq::sim::Proc;
using msq::sim::SimQueue;

struct Counts {
  std::uint64_t enq = 0;
  std::uint64_t deq = 0;
  std::uint64_t empty = 0;
};

void pairs_forever(Proc& p, SimQueue& queue, std::uint32_t id,
                   Counts& counts) {
  for (std::uint64_t i = 0;; ++i) {
    const bool ok = queue.enqueue(p, (std::uint64_t{id} << 40) | i);
    if (ok) ++counts.enq;
    const std::uint64_t got = queue.dequeue(p);
    if (got != kEmpty) {
      ++counts.deq;
    } else {
      ++counts.empty;
    }
  }
}

Algo parse_algo(const std::string& name) {
  if (name == "single-lock") return Algo::kSingleLock;
  if (name == "mc") return Algo::kMc;
  if (name == "valois") return Algo::kValois;
  if (name == "two-lock") return Algo::kTwoLock;
  if (name == "plj") return Algo::kPlj;
  return Algo::kMs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string algo_arg = argc > 1 ? argv[1] : "ms";
  const std::string label = argc > 2 ? argv[2] : "ms.E13.tail_swing";
  const Algo algo = parse_algo(algo_arg);

  msq::sim::EngineConfig config;
  config.seed = 2026;
  Engine engine(config);
  auto queue = msq::sim::make_sim_queue(algo, engine, 64);

  constexpr std::uint32_t kProcs = 4;
  static Counts counts[kProcs];
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    engine.spawn(0, [&, i](Proc& p) {
      return pairs_forever(p, *queue, i, counts[i]);
    });
  }
  // Process 0 is the victim: stall it the moment it reaches `label`.
  engine.freeze_at_label(0, label.c_str());

  constexpr std::uint64_t kSteps = 50'000;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    if (!engine.step_random()) break;
  }

  std::cout << "algorithm " << msq::sim::algo_name(algo) << ", victim stalled at '"
            << label << "' (reached: "
            << (std::string(engine.label(0)) == label ? "yes" : "NO") << ")\n"
            << "after " << kSteps << " random steps:\n";
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    std::cout << "  process " << i << (i == 0 ? " (victim)" : "         ")
              << "  enqueues=" << counts[i].enq << "  dequeues=" << counts[i].deq
              << "  saw-empty=" << counts[i].empty << '\n';
  }
  std::cout << "\nInterpretation: for the non-blocking algorithms (ms, plj,\n"
               "valois) the other processes keep completing operations no\n"
               "matter where the victim stalls; for single-lock everything\n"
               "stops; for two-lock only the victim's end stops; for mc the\n"
               "other end stalls once it reaches the victim's claimed slot.\n";
  return 0;
}
