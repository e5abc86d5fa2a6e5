// The simulated multiprocessor: virtual processes (stackful fibers)
// advancing one shared-memory access per step under an engine-owned
// schedule.
//
// This is the substitute for the paper's 12-node SGI Challenge (DESIGN.md
// section 4).  Two modes share all algorithm code:
//
//  * Schedule-exploration mode (step_random / step): the engine picks which
//    process performs the next access -- seeded-random, round-robin or
//    fully directed.  Tests check safety invariants between steps, record
//    histories for the linearizability checker, and freeze() processes at
//    annotated pseudo-code lines to exercise the paper's liveness arguments
//    (section 3.3) and the published race conditions.
//
//  * Cost mode (run_cost_model): a discrete-event simulation.  Each virtual
//    processor has a clock; the engine always advances the
//    least-advanced processor, charging each access its coherence cost
//    (sim/cost_model.hpp).  Multiple processes per processor are
//    multiplexed with a preemption quantum, reproducing the paper's
//    multiprogrammed configurations (Figures 4 and 5).
//
// One step == one shared-memory access (read/write/CAS/FAA) or one work()
// episode.  The access is applied atomically at the step boundary, giving
// sequential consistency, the model the paper's pseudo-code assumes.
//
// Processes are fibers: a Proc call (read, cas, work, at, ...) is an
// ordinary call that performs its access as the last action of the current
// step, switches back to the engine, and returns the result when the
// process is next scheduled.  So any plain C++ code -- including the
// shipped queues/ms_queue.hpp, through the words of sim/shipped.hpp -- runs
// under the simulator unchanged.
//
// Weak-memory mode (EngineConfig::weak_memory): every access additionally
// declares a check::MemOrder, and stores weaker than seq_cst go into a
// per-process FIFO store buffer instead of memory -- visible to the issuing
// process (store-to-load forwarding) but to nobody else until a separate
// FLUSH step publishes the oldest entry.  Flush steps are schedulable
// nondeterminism: the explorer (sim/explore.hpp) enumerates them the same
// way it enumerates process steps.  RMWs and seq_cst stores are fences:
// they refuse to execute until the issuing process's buffer has drained
// (each drained entry is its own visible step).  This is the TSO model --
// exactly x86's store-buffer relaxation.  With every access left at the
// default seq_cst the mode degenerates to the SC semantics above, which
// tests/sim_weak_memory_test.cpp asserts.
#pragma once

#include <cassert>
#include <csetjmp>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "check/race.hpp"
#include "port/fiber.hpp"
#include "port/prng.hpp"
#include "sim/cost_model.hpp"
#include "sim/memory.hpp"

namespace msq::sim {

class Engine;

using check::MemOrder;

enum class OpKind : std::uint8_t { kRead, kWrite, kCas, kFaa, kSwap, kWork };

struct PendingOp {
  OpKind kind;
  Addr addr = 0;
  std::uint64_t operand_a = 0;  // write value / CAS expected / FAA delta
  std::uint64_t operand_b = 0;  // CAS desired
  double work_cost = 0;         // kWork only
  MemOrder order = MemOrder::kSeqCst;
  // Site name of the access (sim/shipped.hpp words), or nullptr.  A named
  // access labels the process itself, so freeze_at_label(site) stops the
  // process just before that access takes effect.
  const char* site = nullptr;
};

namespace detail {
/// Thrown inside a process abandoned at engine destruction, so its stack
/// unwinds and releases what it holds.
struct Abandoned {};
}  // namespace detail

/// Per-process facade passed into process bodies.  Each access is one
/// engine step: the call returns once the process is scheduled again.
class Proc {
 public:
  // Every access may declare the memory order its real C++ counterpart
  // uses (default seq_cst: the paper's SC model).  Orders are semantic only
  // under race_detect with SyncModel::kOrders (synchronizes-with edges) and
  // under EngineConfig::weak_memory (store buffering); otherwise ignored.
  std::uint64_t read(Addr a, MemOrder o = MemOrder::kSeqCst) {
    return access({OpKind::kRead, a, 0, 0, 0, o});
  }
  void write(Addr a, std::uint64_t v, MemOrder o = MemOrder::kSeqCst) {
    access({OpKind::kWrite, a, v, 0, 0, o});
  }
  /// Returns the OLD value; the CAS succeeded iff old == expected.
  std::uint64_t cas(Addr a, std::uint64_t expected, std::uint64_t desired,
                    MemOrder o = MemOrder::kSeqCst) {
    return access({OpKind::kCas, a, expected, desired, 0, o});
  }
  /// fetch_and_add; returns the OLD value.
  std::uint64_t faa(Addr a, std::uint64_t delta,
                    MemOrder o = MemOrder::kSeqCst) {
    return access({OpKind::kFaa, a, delta, 0, 0, o});
  }
  /// fetch_and_store (unconditional swap); returns the OLD value.
  std::uint64_t swap(Addr a, std::uint64_t v, MemOrder o = MemOrder::kSeqCst) {
    return access({OpKind::kSwap, a, v, 0, 0, o});
  }
  /// Local work of `cost` units (the paper's ~6us spin, backoff episodes).
  void work(double cost) { access({OpKind::kWork, 0, 0, 0, cost}); }
  /// One access as one step; the result of a read/RMW (0 otherwise).
  std::uint64_t access(const PendingOp& op);

  /// A zero-cost step at a labelled pseudo-code line: after it the
  /// process's label is `label` and its NEXT step executes the labelled
  /// operation.  freeze_at_label() therefore stalls a process after it has
  /// committed to an operation but before the operation takes effect --
  /// precisely the windows the paper's liveness argument (section 3.3) and
  /// the historical race conditions are about.
  void at(const char* label);

  /// Tag the process without a step (status only, not a stall point).
  void annotate(const char* label) noexcept;

  /// Run `f`, a call into noexcept shipped code, so that the process can
  /// still unwind if it is abandoned inside it: the abandoned process
  /// leaves `f`'s frames (which must hold only trivially destructible
  /// locals) by longjmp and unwinds from here.  `context` is readable as
  /// context() during the call.  Not reentrant.
  template <typename F>
  auto shielded(const void* context, F&& f) -> decltype(f()) {
    std::jmp_buf env;
    if (setjmp(env) != 0) throw detail::Abandoned{};
    escape_ = &env;
    context_ = context;
    auto result = f();
    escape_ = nullptr;
    return result;
  }
  [[nodiscard]] const void* context() const noexcept { return context_; }

  /// The process running on this thread, or nullptr outside any process.
  [[nodiscard]] static Proc* current() noexcept { return current_; }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] Engine& engine() noexcept { return *engine_; }

 private:
  friend class Engine;
  Proc(Engine* engine, std::uint32_t id) noexcept : engine_(engine), id_(id) {}

  static constinit inline thread_local Proc* current_ = nullptr;

  Engine* engine_;
  std::uint32_t id_;
  std::jmp_buf* escape_ = nullptr;
  const void* context_ = nullptr;
};

struct EngineConfig {
  std::uint32_t processors = 1;
  double quantum = std::numeric_limits<double>::infinity();  // preemption off
  CostParams cost{};
  std::uint64_t seed = 1;
  double jitter = 0;  // uniform extra cost in [0, jitter) per step
  // Happens-before race detection (check/race.hpp): every access is stamped
  // with a vector clock; sync_model declares which operations carry
  // release/acquire edges.  Off by default: stamping costs a map lookup per
  // access, and most tests want raw speed.
  bool race_detect = false;
  check::SyncModel sync_model = check::SyncModel::kRmw;
  // TSO store-buffer execution (see the header comment).  Exploration-mode
  // only: combining it with run_cost_model() is unsupported.  With it on,
  // done(id) additionally requires the process's buffer to have drained,
  // and step(id) on a finished-but-buffered process performs one flush.
  bool weak_memory = false;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const SimMemory& memory() const noexcept { return memory_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Create a virtual process pinned to `processor` whose body is `body`.
  /// The body runs lazily on the process's own stack, one step at a time,
  /// starting with the process's first step; it is kept (with its
  /// captures) until the engine is destroyed.
  std::uint32_t spawn(std::uint32_t processor,
                      std::function<void(Proc&)> body);

  // --- schedule-exploration interface -----------------------------------
  /// Advance process `id` by one step.  Returns false if it is done.
  bool step(std::uint32_t id);
  /// Advance a uniformly random runnable process; false when none remain.
  bool step_random();
  /// Run a random schedule to completion (bounded by `max_steps`).
  /// Returns true if every process finished.
  bool run_random(std::uint64_t max_steps = 100'000'000);

  void freeze(std::uint32_t id) { process(id).frozen = true; }
  void unfreeze(std::uint32_t id) { process(id).frozen = false; }
  /// Freeze `id` as soon as its annotation equals `label` (checked before
  /// each of its steps).  Pass nullptr to cancel.
  void freeze_at_label(std::uint32_t id, const char* label);

  // --- fault-injection interface (src/fault) -----------------------------
  /// Crash-stop failure: process `id` halts forever at its current step,
  /// mid-operation, and can never be revived (unlike freeze/unfreeze).  Its
  /// done() stays false; any shared state it half-updated stays exactly as
  /// the crash left it.  This is the paper's "process is halted or delayed"
  /// hypothesis made permanent (section 1's case for non-blocking progress).
  void crash(std::uint32_t id) { process(id).crashed = true; }
  [[nodiscard]] bool is_crashed(std::uint32_t id) const {
    return process(id).crashed;
  }
  /// Transient stall: process `id` declines the next `steps` engine steps
  /// (scheduling opportunities), then becomes runnable again by itself --
  /// a bounded delay, as opposed to crash()'s unbounded one.  Counters tick
  /// on every engine step, including idle ticks taken when every live
  /// process is stalled.
  void stall(std::uint32_t id, std::uint64_t steps) {
    process(id).stall_remaining = steps;
  }
  [[nodiscard]] bool is_stalled(std::uint32_t id) const {
    return process(id).stall_remaining > 0;
  }

  [[nodiscard]] bool done(std::uint32_t id) const {
    const Process& p = process(id);
    return p.finished && p.store_buffer.empty();
  }
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] const char* label(std::uint32_t id) const {
    return process(id).label;
  }
  [[nodiscard]] std::uint32_t process_count() const noexcept {
    return static_cast<std::uint32_t>(processes_.size());
  }

  // --- cost-model interface ----------------------------------------------
  /// Discrete-event run to completion.  Returns simulated elapsed time
  /// (max processor clock).  Requires every process to terminate.
  double run_cost_model();

  [[nodiscard]] std::uint64_t total_steps() const noexcept { return steps_; }

  // --- race-detection interface (check/race.hpp) --------------------------
  /// Reports collected so far (empty unless config.race_detect).
  [[nodiscard]] const check::RaceLog& races() const noexcept {
    return race_log_;
  }
  [[nodiscard]] check::RaceLog& races() noexcept { return race_log_; }

  /// The shared-memory access performed by the most recent step, if any
  /// (label steps, work episodes, idle stall ticks and final returns
  /// perform none).  The DPOR explorer uses this to build its
  /// dependence relation without reaching into the engine's internals.
  /// Weak-memory mode adds three refinements: a `buffered` store entered
  /// the issuing process's store buffer (not yet globally visible -- a
  /// LOCAL step for dependence purposes), a `forwarded` read was served
  /// from the process's own buffer (also local), and a `flush` write is a
  /// buffered store becoming globally visible (the step that conflicts).
  struct LastAccess {
    bool valid = false;
    OpKind kind = OpKind::kWork;
    Addr addr = 0;
    bool is_write = false;  // mutated the word (failed CAS is a read)
    MemOrder order = MemOrder::kSeqCst;
    bool buffered = false;
    bool forwarded = false;
    bool flush = false;
  };
  [[nodiscard]] const LastAccess& last_access() const noexcept {
    return last_access_;
  }

  // --- weak-memory interface (EngineConfig::weak_memory) ------------------
  /// Buffered stores of process `id` not yet globally visible.
  [[nodiscard]] std::size_t flush_pending(std::uint32_t id) const {
    return process(id).store_buffer.size();
  }
  /// Publish process `id`'s OLDEST buffered store as one engine step (the
  /// explorer schedules these as "flush agents").  Requires flush_pending.
  void flush_one(std::uint32_t id);
  /// Can `id` make PROGRAM progress this step?  False while a fence (RMW or
  /// seq_cst store) waits on the buffer to drain -- then only flush steps
  /// are enabled -- and false once the process body returned.
  [[nodiscard]] bool can_advance(std::uint32_t id) const {
    const Process& p = process(id);
    return !p.finished && !p.crashed && !p.frozen &&
           !(p.has_pending && needs_drain(p.pending_op) &&
             !p.store_buffer.empty());
  }

 private:
  friend class Proc;

  /// One store sitting in a process's TSO buffer, waiting to be flushed.
  struct BufferedStore {
    Addr addr = 0;
    std::uint64_t value = 0;
    MemOrder order = MemOrder::kSeqCst;
    const char* label = "";  // pseudo-code line of the buffering store
  };

  struct Process {
    std::unique_ptr<Proc> facade;
    std::function<void(Proc&)> body;
    port::Fiber fiber;  // runs body; started at the first step
    std::exception_ptr error;  // escaped the body; rethrown by the engine
    std::uint32_t processor = 0;
    bool started = false;
    bool finished = false;
    bool frozen = false;
    bool crashed = false;
    bool abandoning = false;  // engine teardown: unwind at the next resume
    std::uint64_t stall_remaining = 0;
    const char* label = "";
    const char* freeze_label = nullptr;
    double last_step_cost = 0;
    std::uint64_t result = 0;  // of the access the process waits on
    // An access parked instead of executed: a fence op (RMW or seq_cst
    // store) waiting for the weak-memory buffer to drain, or an access
    // whose site is the process's freeze label.
    std::vector<BufferedStore> store_buffer;
    bool has_pending = false;
    PendingOp pending_op{OpKind::kWork};

    [[nodiscard]] bool runnable() const noexcept {
      return !finished && !frozen && !crashed && stall_remaining == 0;
    }
  };

  struct Processor {
    double clock = 0;
    double quantum_used = 0;
    std::vector<std::uint32_t> procs;  // processes multiplexed here
    std::size_t current = 0;           // round-robin cursor
  };

  Process& process(std::uint32_t id) { return *processes_.at(id); }
  [[nodiscard]] const Process& process(std::uint32_t id) const {
    return *processes_.at(id);
  }

  /// Apply `op` to memory and charge its cost.
  std::uint64_t execute(std::uint32_t id, const PendingOp& op);

  /// Fiber side of Proc::access: execute `op` now, or park it (weak-memory
  /// fence with a nonempty buffer, or a site the process is to freeze at),
  /// then yield until the process is next scheduled.
  std::uint64_t perform(Process& p, const PendingOp& op);

  /// Fiber side: switch to the engine; on return, unwind if abandoned.
  void yield(Process& p);

  /// Engine side: run process `p` until it yields or finishes.
  void switch_in(Process& p);

  /// Entry point of every process's fiber: runs the body, then exits.
  static void fiber_main(void* process);

  /// Does `op` require the issuing process's store buffer to be empty?
  [[nodiscard]] bool needs_drain(const PendingOp& op) const noexcept {
    if (!config_.weak_memory) return false;
    if (op.kind == OpKind::kCas || op.kind == OpKind::kFaa ||
        op.kind == OpKind::kSwap) {
      return true;  // RMWs are fences under TSO (x86 LOCK prefix)
    }
    return op.kind == OpKind::kWrite && op.order == MemOrder::kSeqCst;
  }

  /// Publish the oldest buffered store of `id` (one engine step).
  void flush_oldest(std::uint32_t id);

  /// Resume process `id` for one step (it must be runnable).
  void resume_one(std::uint32_t id);

  /// Unwind every process that started but did not finish.
  void abandon_unfinished() noexcept;

  /// One engine step elapsed: tick down every live process's stall counter.
  void tick_stalls() noexcept;

  EngineConfig config_;
  SimMemory memory_;
  CostModel cost_model_;
  port::Xoshiro256 rng_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Processor> processors_;
  std::uint64_t steps_ = 0;
  check::RaceLog race_log_;
  std::optional<check::HbTracker> hb_;  // engaged iff config_.race_detect
  LastAccess last_access_{};
};

}  // namespace msq::sim
