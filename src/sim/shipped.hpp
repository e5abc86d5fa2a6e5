// The shipped queues under the simulator.  SimWord, SimCell and SimAtomic
// have the interfaces of tagged::AtomicTagged, mem::ValueCell /
// mem::GuardedCell and port::Atomic, but each call is one engine step on a
// SimMemory word, in the order the shipped line passes (a guarded cell's
// is plain) and labelled with the site name it passes (sim/mo_table.hpp).
// Instantiated over them, the six queues of the paper's evaluation, their
// free lists and the TATAS lock run unchanged, so DPOR, the liveness and
// crash tests, the figure runs and the memory-order sweep check the code
// that ships.  Freeze labels, race reports and sweep overrides all speak
// the same site names.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/freelist.hpp"
#include "mem/value_cell.hpp"
#include "queues/mellor_crummey_queue.hpp"
#include "queues/ms_queue.hpp"
#include "queues/plj_queue.hpp"
#include "queues/single_lock_queue.hpp"
#include "queues/two_lock_queue.hpp"
#include "queues/valois_queue.hpp"
#include "sim/engine.hpp"
#include "sim/mo_table.hpp"
#include "sim/queue_iface.hpp"
#include "sync/tatas_lock.hpp"
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
  // Test-only hook: store links at fl.push_link, ms.E3.next_init and
  // plj.next_init with count 0 -- the tag reset that FreeList::push and the
  // queues' counted null links exist to avoid.
  bool reset_link_tags = false;
  // When set, every named access records (site, order passed): the sweep
  // learns the orders it weakens from the code itself.
  std::vector<std::pair<const char*, MemOrder>>* seen = nullptr;

  /// An engine step inside a process; a raw access outside one (queue
  /// construction, invariant checks between steps).
  std::uint64_t access(OpKind kind, Addr addr, std::uint64_t a,
                       std::uint64_t b, MemOrder mo, const char* site) const {
    if (site != nullptr && seen != nullptr) note(site, mo);
    if (site != nullptr && overrides != nullptr) {
      if (const MemOrder* o = overrides->find(site)) mo = *o;
    }
    if (Proc* p = Proc::current()) {
      return p->access({kind, addr, a, b, 0, mo, site});
    }
    std::uint64_t& w = engine->memory().word(addr);
    const std::uint64_t old = w;
    switch (kind) {
      case OpKind::kWrite:
      case OpKind::kSwap: w = a; break;
      case OpKind::kCas: if (w == a) w = b; break;
      case OpKind::kFaa: w += a; break;
      default: break;
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
                       MemOrder order, const char* site) const {
    return binding_->access(kind, addr_, a, b, order, site);
  }
  std::uint64_t access(OpKind kind, std::uint64_t a, std::uint64_t b,
                       std::memory_order order, const char* site) const {
    return access(kind, a, b, to_mem_order(order), site);
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
         std::strcmp(site, "ms.E3.next_init") == 0 ||
         std::strcmp(site, "plj.next_init") == 0)) {
      value = tagged::TaggedIndex(value.index(), 0);
    }
    access(OpKind::kWrite, value.bits(), 0, order, site);
  }
  tagged::TaggedIndex exchange(tagged::TaggedIndex desired,
                               std::memory_order order,
                               const char* site = nullptr) {
    return tagged::TaggedIndex::from_bits(
        access(OpKind::kSwap, desired.bits(), 0, order, site));
  }
  bool compare_and_swap(tagged::TaggedIndex expected,
                        tagged::TaggedIndex desired, std::memory_order order,
                        const char* site = nullptr) {
    return access(OpKind::kCas, expected.bits(), desired.bits(), order,
                  site) == expected.bits();
  }
};

/// mem::ValueCell's (kOrder relaxed) or mem::GuardedCell's (kOrder plain)
/// interface over one simulated word.  The order is a property of the cell
/// type, not of the call site, as there.
template <typename T, MemOrder kOrder>
class SimCell : public SimSlot {
 public:
  SimCell() : SimSlot(0) {}

  void put(T value, const char* site = nullptr) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    access(OpKind::kWrite, bits, 0, kOrder, site);
  }
  [[nodiscard]] T get(const char* site = nullptr) const {
    const std::uint64_t bits = access(OpKind::kRead, 0, 0, kOrder, site);
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
  }
  void move_to(T& out, const char* site = nullptr) { out = get(site); }
};

/// port::Atomic's interface over one simulated word.
template <typename T>
class SimAtomic : public SimSlot {
 public:
  SimAtomic() : SimSlot(0) {}

  [[nodiscard]] T load(std::memory_order order,
                       const char* site = nullptr) const {
    return static_cast<T>(access(OpKind::kRead, 0, 0, order, site));
  }
  void store(T value, std::memory_order order, const char* site = nullptr) {
    access(OpKind::kWrite, static_cast<std::uint64_t>(value), 0, order, site);
  }
  T exchange(T value, std::memory_order order, const char* site = nullptr) {
    return static_cast<T>(access(OpKind::kSwap,
                                 static_cast<std::uint64_t>(value), 0, order,
                                 site));
  }
  T fetch_add(T delta, std::memory_order order, const char* site = nullptr) {
    return static_cast<T>(access(OpKind::kFaa,
                                 static_cast<std::uint64_t>(delta), 0, order,
                                 site));
  }
  /// One CAS step in the success order (a simulated CAS never fails
  /// spuriously; `failure` has no separate step to order).
  bool compare_exchange_weak(T& expected, T desired, std::memory_order success,
                             std::memory_order /*failure*/,
                             const char* site = nullptr) {
    const auto old = static_cast<T>(
        access(OpKind::kCas, static_cast<std::uint64_t>(expected),
               static_cast<std::uint64_t>(desired), success, site));
    if (old == expected) return true;
    expected = old;
    return false;
  }
};

}  // namespace msq::sim

// Queues whose counted word is a SimWord keep every other cell in
// simulated words too.
template <typename T>
struct msq::mem::CellFor<T, msq::sim::SimWord> {
  using type = sim::SimCell<T, sim::MemOrder::kRelaxed>;
};
template <typename T>
struct msq::mem::GuardedFor<T, msq::sim::SimWord> {
  using type = sim::SimCell<T, sim::MemOrder::kPlain>;
};
template <typename T>
struct msq::mem::AtomicFor<T, msq::sim::SimWord> {
  using type = sim::SimAtomic<T>;
};

namespace msq::sim {

/// The shipped queues' BackoffPolicy under the simulator: SimBackoff's
/// window, spent as work() steps -- after a failed CAS (pause) and on each
/// turn of a lock's local spin (relax), so a waiter whose lock holder is
/// descheduled for a quantum takes a bounded number of steps, not one per
/// spin.  Reads its bound from the binding the calling process entered the
/// queue with (Proc::shielded).
class SimBackoffPolicy {
 public:
  SimBackoffPolicy() : backoff_(window_bound()) {}
  void pause() {
    if (Proc* p = Proc::current()) p->work(backoff_.next());
  }
  void relax() { pause(); }

 private:
  [[nodiscard]] static double window_bound() noexcept {
    const Proc* p = Proc::current();
    return p != nullptr && p->context() != nullptr
               ? static_cast<const SimBinding*>(p->context())->backoff_max
               : 1024;
  }
  SimBackoff backoff_;
};

/// The TATAS lock of both lock-based queues, over a simulated flag.
using SimTatasLock = sync::BasicTatasLock<SimBackoffPolicy, SimAtomic<bool>>;

/// A shipped queue as a SimQueue: its words bind to this adapter's binding
/// at construction, and each operation runs the shipped try_enqueue /
/// try_dequeue inside the calling process.  `kTailInList`: the structural
/// check also requires Tail to be a node of Head's chain (not for MC, whose
/// list splits mid-link, nor Valois, whose Tail may lag behind Head).
template <typename Queue, bool kTailInList = true>
class ShippedQueue final : public SimQueue {
 public:
  ShippedQueue(Engine& engine, std::uint32_t capacity,
               double backoff_max = 1024, const MoTable* mo = nullptr)
      : binding_{&engine, mo, backoff_max}, capacity_(capacity) {
    const SimBinding::Scope scope(binding_);
    queue_.emplace(capacity);
  }

  bool enqueue(Proc& p, std::uint64_t value) override {
    return p.shielded(&binding_, [&] { return queue_->try_enqueue(value); });
  }

  std::uint64_t dequeue(Proc& p) override {
    return p.shielded(&binding_, [&] {
      std::uint64_t value = kEmpty;
      return queue_->try_dequeue(value) ? value : kEmpty;
    });
  }

  /// Paper section 3.1 safety properties, checked structurally: the list
  /// from Head reaches NULL within capacity+1 hops (connected, no cycle);
  /// Tail points at a node in it; Valois's Head and Tail point at live
  /// nodes.
  void check_invariants() const override {
    const std::uint32_t head = index_of(queue_->unsafe_head());
    const std::uint32_t tail = index_of(queue_->unsafe_tail());
    bool tail_seen = false;
    std::uint32_t hops = 0;
    for (std::uint32_t it = head; it != tagged::kNullIndex;
         it = index_of(queue_->unsafe_next(it))) {
      if (it == tail) tail_seen = true;
      if (++hops > capacity_ + 1) {
        throw std::runtime_error("invariant: list not connected (cycle)");
      }
    }
    if (kTailInList && !tail_seen) {
      throw std::runtime_error("invariant: Tail not in the linked list");
    }
    if constexpr (requires { queue_->pool().unsafe_live(head); }) {
      for (const std::uint32_t ptr : {head, tail}) {
        if (!queue_->pool().unsafe_live(ptr)) {
          throw std::runtime_error("invariant: live pointer to claimed node");
        }
      }
    }
  }

  /// The binding's test hooks (reset_link_tags, seen) may be set before
  /// any process runs.
  [[nodiscard]] SimBinding& binding() noexcept { return binding_; }

 private:
  template <typename L>
  [[nodiscard]] static std::uint32_t index_of(const L& link) noexcept {
    if constexpr (std::integral<L>) {
      return link;
    } else {
      return link.index();
    }
  }

  SimBinding binding_;
  std::uint32_t capacity_;
  std::optional<Queue> queue_;  // after binding_: destroyed before it
};

// The six algorithms of the paper's evaluation, as shipped.
using ShippedMsQueue = ShippedQueue<
    queues::MsQueue<std::uint64_t, SimBackoffPolicy, mem::FreeList, SimWord>>;
using ShippedMcQueue = ShippedQueue<
    queues::MellorCrummeyQueue<std::uint64_t, SimBackoffPolicy, SimWord>,
    /*kTailInList=*/false>;
using ShippedPljQueue =
    ShippedQueue<queues::PljQueue<std::uint64_t, SimBackoffPolicy, SimWord>>;
using ShippedValoisQueue = ShippedQueue<
    queues::ValoisQueue<std::uint64_t, SimBackoffPolicy, SimWord>,
    /*kTailInList=*/false>;
using ShippedTwoLockQueue = ShippedQueue<
    queues::TwoLockQueue<std::uint64_t, SimTatasLock, SimWord>>;
using ShippedSingleLockQueue = ShippedQueue<
    queues::SingleLockQueue<std::uint64_t, SimTatasLock, SimWord>>;

}  // namespace msq::sim
