// The shipped Figure 1 under the simulator.  SimWord and SimCell have the
// interfaces of tagged::AtomicTagged and mem::ValueCell, but each call is
// one engine step on a SimMemory word, in the std::memory_order the
// shipped line passes and labelled with the site name it passes
// (sim/mo_table.hpp).  Instantiated over them, queues::MsQueue and
// mem::FreeList run unchanged, so DPOR, the liveness tests and the
// memory-order sweep check the code that ships.  Freeze labels, race
// reports and sweep overrides all speak the same site names.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/freelist.hpp"
#include "mem/value_cell.hpp"
#include "queues/ms_queue.hpp"
#include "sim/engine.hpp"
#include "sim/mo_table.hpp"
#include "sim/queue_iface.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {

[[nodiscard]] constexpr MemOrder to_mem_order(std::memory_order o) noexcept {
  switch (o) {
    // relaxed: a translation of the caller's order, not an access
    case std::memory_order_relaxed: return MemOrder::kRelaxed;
    case std::memory_order_consume:
    case std::memory_order_acquire: return MemOrder::kAcquire;
    case std::memory_order_release: return MemOrder::kRelease;
    case std::memory_order_acq_rel: return MemOrder::kAcqRel;
    default:                        return MemOrder::kSeqCst;
  }
}

/// What ties shipped-code words to one engine.  A word binds to the
/// binding in scope (SimBinding::Scope) when it is constructed.
struct SimBinding {
  Engine* engine = nullptr;
  const MoTable* overrides = nullptr;  // sweep: one site's order mutated
  double backoff_max = 1024;           // SimBackoffPolicy's window bound
  // Test-only hook: store links at fl.push_link and ms.E3.next_init with
  // count 0 -- the tag reset that FreeList::push and E3 exist to avoid.
  bool reset_link_tags = false;
  // When set, every named access records (site, order passed): the sweep
  // learns the orders it weakens from the code itself.
  std::vector<std::pair<const char*, MemOrder>>* seen = nullptr;

  /// An engine step inside a process; a raw access outside one (queue
  /// construction, invariant checks between steps).
  std::uint64_t access(OpKind kind, Addr addr, std::uint64_t a,
                       std::uint64_t b, std::memory_order order,
                       const char* site) const {
    MemOrder mo = to_mem_order(order);
    if (site != nullptr && seen != nullptr) note(site, mo);
    if (site != nullptr && overrides != nullptr) {
      if (const MemOrder* o = overrides->find(site)) mo = *o;
    }
    if (Proc* p = Proc::current()) {
      return p->access({kind, addr, a, b, 0, mo, site});
    }
    std::uint64_t& w = engine->memory().word(addr);
    const std::uint64_t old = w;
    if (kind == OpKind::kWrite || (kind == OpKind::kCas && w == a)) {
      w = kind == OpKind::kWrite ? a : b;
    }
    return old;
  }

  /// Words constructed while a Scope is alive bind to its binding.
  struct Scope {
    explicit Scope(const SimBinding& b) noexcept
        : outer(std::exchange(current, &b)) {}
    ~Scope() { current = outer; }
    const SimBinding* outer;
  };
  static constinit inline thread_local const SimBinding* current = nullptr;

 private:
  void note(const char* site, MemOrder mo) const {
    for (const auto& [name, order] : *seen) {
      if (std::strcmp(name, site) == 0) return;
    }
    seen->emplace_back(site, mo);
  }
};

/// One simulated word, bound at construction.
class SimSlot {
 public:
  SimSlot(const SimSlot&) = delete;
  SimSlot& operator=(const SimSlot&) = delete;

 protected:
  explicit SimSlot(std::uint64_t initial)
      : binding_(SimBinding::current),
        addr_(binding_->engine->memory().alloc(1)) {
    binding_->engine->memory().word(addr_) = initial;
  }
  std::uint64_t access(OpKind kind, std::uint64_t a, std::uint64_t b,
                       std::memory_order order, const char* site) const {
    return binding_->access(kind, addr_, a, b, order, site);
  }

  const SimBinding* binding_;
  Addr addr_;
};

/// tagged::AtomicTagged's interface over one simulated word.
class SimWord : public SimSlot {
 public:
  SimWord() : SimSlot(tagged::TaggedIndex{}.bits()) {}

  [[nodiscard]] tagged::TaggedIndex load(std::memory_order order,
                                         const char* site = nullptr) const {
    return tagged::TaggedIndex::from_bits(
        access(OpKind::kRead, 0, 0, order, site));
  }
  void store(tagged::TaggedIndex value, std::memory_order order,
             const char* site = nullptr) {
    if (binding_->reset_link_tags && site != nullptr &&
        (std::strcmp(site, "fl.push_link") == 0 ||
         std::strcmp(site, "ms.E3.next_init") == 0)) {
      value = tagged::TaggedIndex(value.index(), 0);
    }
    access(OpKind::kWrite, value.bits(), 0, order, site);
  }
  bool compare_and_swap(tagged::TaggedIndex expected,
                        tagged::TaggedIndex desired, std::memory_order order,
                        const char* site = nullptr) {
    return access(OpKind::kCas, expected.bits(), desired.bits(), order,
                  site) == expected.bits();
  }
};

/// mem::ValueCell's interface over one simulated word.  Relaxed, as there:
/// the order is a property of the cell type, not of the call site.
template <typename T>
class SimCell : public SimSlot {
 public:
  SimCell() : SimSlot(0) {}

  void put(T value, const char* site = nullptr) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    // relaxed: mem::ValueCell::put's order, mirrored
    access(OpKind::kWrite, bits, 0, std::memory_order_relaxed, site);
  }
  [[nodiscard]] T get(const char* site = nullptr) const {
    // relaxed: mem::ValueCell::get's order, mirrored
    const std::uint64_t bits =
        access(OpKind::kRead, 0, 0, std::memory_order_relaxed, site);
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
  }
};

}  // namespace msq::sim

// Nodes whose link is a SimWord keep their value in a SimCell.
template <typename T>
struct msq::mem::CellFor<T, msq::sim::SimWord> {
  using type = sim::SimCell<T>;
};

namespace msq::sim {

/// The shipped queue's BackoffPolicy under the simulator: SimBackoff's
/// window, spent as work() steps.  Reads its bound from the binding the
/// calling process entered the queue with (Proc::shielded).
class SimBackoffPolicy {
 public:
  SimBackoffPolicy() : backoff_(window_bound()) {}
  void pause() {
    if (Proc* p = Proc::current()) p->work(backoff_.next());
  }

 private:
  [[nodiscard]] static double window_bound() noexcept {
    const Proc* p = Proc::current();
    return p != nullptr && p->context() != nullptr
               ? static_cast<const SimBinding*>(p->context())->backoff_max
               : 1024;
  }
  SimBackoff backoff_;
};

/// queues::MsQueue itself, as a SimQueue.
class ShippedMsQueue final : public SimQueue {
 public:
  using Queue = queues::MsQueue<std::uint64_t, SimBackoffPolicy,
                                mem::FreeList, SimWord>;

  ShippedMsQueue(Engine& engine, std::uint32_t capacity,
                 double backoff_max = 1024, const MoTable* mo = nullptr)
      : binding_{&engine, mo, backoff_max}, capacity_(capacity) {
    const SimBinding::Scope scope(binding_);
    queue_.emplace(capacity);
  }

  [[nodiscard]] const char* name() const noexcept override { return "MS"; }

  bool enqueue(Proc& p, std::uint64_t value) override {
    return p.shielded(&binding_, [&] { return queue_->try_enqueue(value); });
  }

  std::uint64_t dequeue(Proc& p) override {
    return p.shielded(&binding_, [&] {
      std::uint64_t value = kEmpty;
      return queue_->try_dequeue(value) ? value : kEmpty;
    });
  }

  /// Paper section 3.1 safety properties, checked structurally:
  ///  1. the linked list is always connected (head reaches NULL within
  ///     capacity+1 hops -- no cycle, no dangling link);
  ///  4. Head points at the first node (trivially, by representation);
  ///  5. Tail points at a node IN the list.
  void check_invariants() const override {
    const auto tail = queue_->unsafe_tail();
    bool tail_in_list = false;
    std::uint32_t hops = 0;
    for (auto it = queue_->unsafe_head(); !it.is_null();
         it = queue_->unsafe_next(it.index())) {
      if (it.index() == tail.index()) tail_in_list = true;
      if (++hops > capacity_ + 1) {
        throw std::runtime_error("MS invariant: list not connected (cycle)");
      }
    }
    if (!tail_in_list) {
      throw std::runtime_error("MS invariant: Tail not in the linked list");
    }
  }

  /// The binding's test hooks (reset_link_tags, seen) may be set before
  /// any process runs.
  [[nodiscard]] SimBinding& binding() noexcept { return binding_; }

 private:
  SimBinding binding_;
  std::uint32_t capacity_;
  std::optional<Queue> queue_;
};

}  // namespace msq::sim
