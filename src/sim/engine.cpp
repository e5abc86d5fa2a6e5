#include "sim/engine.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/counters.hpp"

namespace msq::sim {

void Proc::at(const char* label) {
  Engine::Process& p = engine_->process(id_);
  p.label = label;
  p.last_step_cost = 0;
  ++engine_->steps_;
  engine_->yield(p);
}

void Proc::annotate(const char* label) noexcept {
  engine_->process(id_).label = label;
}

Engine::Engine(EngineConfig config)
    : config_(config), cost_model_(config.cost), rng_(config.seed) {
  processors_.resize(config_.processors);
  if (config_.race_detect) hb_.emplace(config_.sync_model, race_log_);
}

Engine::~Engine() { abandon_unfinished(); }

std::uint32_t Engine::spawn(std::uint32_t processor,
                            std::function<void(Proc&)> body) {
  assert(processor < config_.processors);
  const std::uint32_t id = static_cast<std::uint32_t>(processes_.size());
  auto process = std::make_unique<Process>();
  process->facade.reset(new Proc(this, id));
  process->body = std::move(body);
  process->processor = processor;
  processes_.push_back(std::move(process));
  return id;
}

// The switching paths are always inlined, so that neither side adds frames
// whose returns would mispredict after a switch (see port/fiber.cpp).
[[gnu::always_inline]] inline void Engine::switch_in(Process& p) {
  Proc* const outer = Proc::current_;
  Proc::current_ = p.facade.get();
  p.fiber.resume();
  Proc::current_ = outer;
  if (p.error) std::rethrow_exception(std::exchange(p.error, nullptr));
}

[[gnu::always_inline]] inline void Engine::yield(Process& p) {
  p.fiber.suspend();
  if (p.abandoning) {
    if (p.facade->escape_ != nullptr) std::longjmp(*p.facade->escape_, 1);
    throw detail::Abandoned{};
  }
}

void Engine::fiber_main(void* process) {
  Process& p = *static_cast<Process*>(process);
  try {
    p.body(*p.facade);
  } catch (const detail::Abandoned&) {
    // Unwound at engine teardown; nothing to report.
  } catch (...) {
    p.error = std::current_exception();
  }
  p.finished = true;
  p.fiber.exit();
}

void Engine::abandon_unfinished() noexcept {
  for (auto& p : processes_) {
    if (p->started && !p->finished) {
      p->abandoning = true;
      switch_in(*p);
    }
  }
}

[[gnu::always_inline]] inline std::uint64_t Engine::perform(
    Process& p, const PendingOp& op) {
  if (op.site != nullptr) p.label = op.site;
  if ((op.site != nullptr && p.freeze_label != nullptr &&
       std::strcmp(op.site, p.freeze_label) == 0) ||
      (needs_drain(op) && !p.store_buffer.empty())) {
    // Park the op; this step only reaches it.  An access at the freeze
    // label runs at the first step after the process is unfrozen.  A fence
    // refuses to execute until the buffer drains: each drain is its own
    // visible step, then the op executes as one more.
    p.has_pending = true;
    p.pending_op = op;
    ++steps_;
  } else {
    p.result = execute(p.facade->id(), op);
  }
  yield(p);
  return p.result;
}

std::uint64_t Engine::execute(std::uint32_t id, const PendingOp& op) {
  Process& p = process(id);
  double cost = 0;
  std::uint64_t result = 0;
  bool wrote = false;  // did the op mutate the word (failed CAS does not)
  const std::uint32_t processor = p.processor;

  if (config_.weak_memory) {
    if (op.kind == OpKind::kWrite && op.order != MemOrder::kSeqCst) {
      // TSO: the store enters the FIFO buffer, visible only to this
      // process until a flush step publishes it.  No hb feed here; the
      // tracker sees the write when it becomes globally visible.
      p.store_buffer.push_back({op.addr, op.operand_a, op.order, p.label});
      last_access_ = {true, op.kind, op.addr, /*is_write=*/true, op.order,
                      /*buffered=*/true, false, false};
      p.last_step_cost = 0;
      ++steps_;
      return 0;
    }
    if (op.kind == OpKind::kRead) {
      // Store-to-load forwarding: the NEWEST buffered store to this addr
      // wins over memory.  A forwarded read touches no shared state.
      for (auto it = p.store_buffer.rbegin(); it != p.store_buffer.rend();
           ++it) {
        if (it->addr == op.addr) {
          last_access_ = {true, op.kind, op.addr, /*is_write=*/false,
                          op.order, false, /*forwarded=*/true, false};
          p.last_step_cost = 0;
          ++steps_;
          return it->value;
        }
      }
    }
    // RMWs and seq_cst stores reach here with an EMPTY buffer (perform()
    // parks them otherwise) and act on memory directly -- write-through.
    assert(!needs_drain(op) || p.store_buffer.empty());
  }

  switch (op.kind) {
    case OpKind::kRead:
      cost = cost_model_.on_read(processor, op.addr);
      result = memory_.word(op.addr);
      break;
    case OpKind::kWrite:
      cost = cost_model_.on_write(processor, op.addr, /*rmw=*/false);
      memory_.word(op.addr) = op.operand_a;
      wrote = true;
      break;
    case OpKind::kCas: {
      cost = cost_model_.on_write(processor, op.addr, /*rmw=*/true);
      std::uint64_t& w = memory_.word(op.addr);
      result = w;  // old value; success iff old == expected
      // Every simulated CAS funnels through here, so this one site gives
      // deterministic attempt/failure counts for the whole sim sweep.
      MSQ_COUNT(kCasAttempt);
      if (w == op.operand_a) {
        w = op.operand_b;
        wrote = true;
      } else {
        MSQ_COUNT(kCasFail);
      }
      break;
    }
    case OpKind::kFaa: {
      cost = cost_model_.on_write(processor, op.addr, /*rmw=*/true);
      std::uint64_t& w = memory_.word(op.addr);
      result = w;
      w += op.operand_a;
      wrote = true;
      break;
    }
    case OpKind::kSwap: {
      cost = cost_model_.on_write(processor, op.addr, /*rmw=*/true);
      std::uint64_t& w = memory_.word(op.addr);
      result = w;
      w = op.operand_a;
      wrote = true;
      break;
    }
    case OpKind::kWork:
      cost = cost_model_.on_work(op.work_cost);
      break;
  }
  if (op.kind != OpKind::kWork) {
    last_access_ = {true, op.kind, op.addr, wrote, op.order};
    if (hb_) {
      const bool rmw = op.kind == OpKind::kCas || op.kind == OpKind::kFaa ||
                       op.kind == OpKind::kSwap;
      hb_->on_access(id, p.label, op.addr, wrote, rmw, steps_, op.order);
    }
  }
  if (config_.jitter > 0) {
    cost += config_.jitter * static_cast<double>(rng_() >> 40) /
            static_cast<double>(1ull << 24);
  }
  p.last_step_cost = cost;
  ++steps_;
  return result;
}

std::uint64_t Proc::access(const PendingOp& op) {
  return engine_->perform(engine_->process(id_), op);
}

void Engine::flush_oldest(std::uint32_t id) {
  Process& p = process(id);
  assert(!p.store_buffer.empty());
  const BufferedStore e = p.store_buffer.front();
  p.store_buffer.erase(p.store_buffer.begin());
  memory_.word(e.addr) = e.value;
  p.last_step_cost = cost_model_.on_write(p.processor, e.addr, /*rmw=*/false);
  last_access_ = {true,  OpKind::kWrite, e.addr, /*is_write=*/true, e.order,
                  false, false,          /*flush=*/true};
  if (hb_) {
    // The write joins the hb trace when it becomes globally visible,
    // labelled with the pseudo-code line of the store that buffered it.
    hb_->on_access(id, e.label, e.addr, /*is_write=*/true, /*is_rmw=*/false,
                   steps_, e.order);
  }
  ++steps_;
}

void Engine::flush_one(std::uint32_t id) {
  process(id).last_step_cost = 0;
  last_access_ = {};
  flush_oldest(id);
}

[[gnu::always_inline]] inline void Engine::resume_one(std::uint32_t id) {
  Process& p = process(id);
  p.last_step_cost = 0;
  last_access_ = {};  // set again by execute() iff this step touches memory
  if (p.has_pending) {
    // A parked op.  A fence drains one buffered store per step; once the
    // buffer is empty the op itself executes as this step, and the process
    // resumes (reading the op's result) on a later step.
    if (needs_drain(p.pending_op) && !p.store_buffer.empty()) {
      flush_oldest(id);
      return;
    }
    p.has_pending = false;
    p.result = execute(id, p.pending_op);
    return;
  }
  if (!p.started) {
    p.started = true;
    p.fiber.start(&fiber_main, &p, id);
  }
  switch_in(p);
}

bool Engine::step(std::uint32_t id) {
  Process& p = process(id);
  if (p.crashed) return false;
  if (p.finished) {
    // Weak memory: a finished process may still owe the world its buffered
    // stores; its remaining steps are flushes.
    if (p.store_buffer.empty()) return false;
    p.last_step_cost = 0;
    last_access_ = {};
    tick_stalls();
    flush_oldest(id);
    return true;
  }
  if (p.freeze_label != nullptr && p.label != nullptr &&
      std::string_view(p.label) == p.freeze_label) {
    p.frozen = true;
  }
  if (p.stall_remaining > 0) {
    // The step is consumed idling: a stalled process declines its slot.
    last_access_ = {};
    tick_stalls();
    return true;
  }
  tick_stalls();
  resume_one(id);
  return true;
}

void Engine::tick_stalls() noexcept {
  for (auto& p : processes_) {
    if (!p->finished && !p->crashed && p->stall_remaining > 0) {
      --p->stall_remaining;
    }
  }
}

void Engine::freeze_at_label(std::uint32_t id, const char* label) {
  process(id).freeze_label = label;
}

bool Engine::all_done() const {
  return std::all_of(processes_.begin(), processes_.end(), [](const auto& p) {
    return p->finished && p->store_buffer.empty();
  });
}

bool Engine::step_random() {
  // Collect runnable processes, honouring freeze labels first.
  std::vector<std::uint32_t> runnable;
  bool stalled_exists = false;
  runnable.reserve(processes_.size());
  for (std::uint32_t i = 0; i < processes_.size(); ++i) {
    Process& p = *processes_[i];
    if (p.crashed) continue;
    if (p.finished && p.store_buffer.empty()) continue;
    if (p.freeze_label != nullptr && p.label != nullptr &&
        std::string_view(p.label) == p.freeze_label) {
      p.frozen = true;
    }
    if (p.frozen) continue;
    if (p.stall_remaining > 0) {
      stalled_exists = true;
      continue;
    }
    runnable.push_back(i);
  }
  if (runnable.empty()) {
    // Only stalled processes left: time passes as an idle tick so their
    // delays elapse (otherwise a stall could never end).
    if (!stalled_exists) return false;
    tick_stalls();
    return true;
  }
  const std::uint32_t pick =
      runnable[static_cast<std::size_t>(rng_.below(runnable.size()))];
  tick_stalls();
  if (process(pick).finished) {
    // Finished but still buffered (weak memory): the step is a flush.
    process(pick).last_step_cost = 0;
    last_access_ = {};
    flush_oldest(pick);
  } else {
    resume_one(pick);
  }
  return true;
}

bool Engine::run_random(std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    if (!step_random()) return all_done();
  }
  return false;
}

double Engine::run_cost_model() {
  // Attach processes to their processors' run queues.
  for (auto& processor : processors_) {
    processor.procs.clear();
    processor.current = 0;
    processor.clock = 0;
    processor.quantum_used = 0;
  }
  for (std::uint32_t i = 0; i < processes_.size(); ++i) {
    processors_.at(processes_[i]->processor).procs.push_back(i);
  }

  auto runnable_on = [&](const Processor& pr) {
    return std::any_of(pr.procs.begin(), pr.procs.end(), [&](std::uint32_t id) {
      return process(id).runnable();
    });
  };

  for (;;) {
    // Discrete event step: advance the least-advanced busy processor.
    Processor* chosen = nullptr;
    for (auto& pr : processors_) {
      if (!runnable_on(pr)) continue;
      if (chosen == nullptr || pr.clock < chosen->clock) chosen = &pr;
    }
    if (chosen == nullptr) {
      // Nothing immediately runnable; stalled processes (bounded delays)
      // wake after an idle tick, crashed/frozen/finished ones never do.
      const bool stalled_exists = std::any_of(
          processes_.begin(), processes_.end(), [](const auto& p) {
            return !p->finished && !p->frozen && !p->crashed &&
                   p->stall_remaining > 0;
          });
      if (!stalled_exists) break;  // everything finished (or halted)
      tick_stalls();
      continue;
    }

    // Round-robin within the processor: advance the cursor past processes
    // that finished or are frozen (a frozen process models one that is
    // stalled in the kernel; it yields its slot immediately).
    Processor& pr = *chosen;
    std::size_t scanned = 0;
    while (scanned < pr.procs.size()) {
      const Process& p = process(pr.procs[pr.current]);
      if (p.runnable()) break;
      pr.current = (pr.current + 1) % pr.procs.size();
      pr.quantum_used = 0;
      ++scanned;
    }
    const std::uint32_t id = pr.procs[pr.current];

    tick_stalls();
    resume_one(id);
    const double cost = process(id).last_step_cost;
    pr.clock += cost;
    pr.quantum_used += cost;

    if (process(id).finished ||
        (pr.quantum_used >= config_.quantum && pr.procs.size() > 1)) {
      // Preempt: rotate to the next co-scheduled process.
      pr.current = (pr.current + 1) % pr.procs.size();
      pr.quantum_used = 0;
      pr.clock += cost_model_.params().context_switch;
    }
  }

  double elapsed = 0;
  for (const auto& pr : processors_) elapsed = std::max(elapsed, pr.clock);
  return elapsed;
}

}  // namespace msq::sim
