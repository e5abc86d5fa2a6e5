// Race-tolerant value slot for the lock-free queues.
//
// In the paper's dequeue, the value is read *before* the CAS that removes
// the node ("Read value before CAS, otherwise another dequeue might free the
// next node").  A losing dequeuer may therefore read a node that a winning
// dequeuer has already recycled and that an enqueuer is concurrently
// refilling.  The algorithm discards the torn value (the CAS fails), but in
// C++ the racing read itself would be undefined behaviour on a plain field.
// ValueCell makes that read well-defined (and TSAN-clean) by storing the
// value in a relaxed std::atomic word.
//
// Consequence: the lock-free queues require trivially-copyable values of at
// most 8 bytes (store pointers or indices for anything larger).  The
// lock-based queues have no such restriction.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "port/atomic.hpp"

namespace msq::mem {

template <typename T>
class ValueCell {
  static_assert(std::is_trivially_copyable_v<T>,
                "lock-free queues require trivially copyable values");
  static_assert(sizeof(T) <= 8,
                "lock-free queues require values of at most 8 bytes; "
                "store a pointer or index for larger payloads");

 public:
  // Named put/get rather than store/load on purpose: the relaxed ordering
  // is a property of the TYPE (the queue's CAS carries the ordering; this
  // slot only needs atomicity against torn reads), so sites should not
  // look like tunable atomic operations to readers or to the atomics lint.
  // `site` names the access for the simulator's cell (sim/shipped.hpp).
  void put(T value, const char* /*site*/ = nullptr) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    // relaxed: ordering is provided by the CAS that publishes the node (proof: mo-sweep:ms.E2.value_write)
    bits_.store(bits, std::memory_order_relaxed);
  }

  [[nodiscard]] T get(const char* /*site*/ = nullptr) const noexcept {
    // relaxed: a stale/torn-free read; the guarding CAS rejects stale uses (proof: mo-sweep:ms.D11.value_read)
    const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
  }

 private:
  // share-ok: lives inside pool nodes, packed next to the link on purpose
  // (one node, one line; the queue ends are the contended words, not this)
  std::atomic<std::uint64_t> bits_{0};
};

/// A plain field guarded by a lock (the lock-based queues' Head, Tail,
/// values and private free list).  No atomicity: the lock orders every
/// access, so any T works, non-trivially-copyable ones included.  `site`
/// names the access for the simulator's cell, which is a plain-order word
/// the race detector and the cost model see (sim/shipped.hpp).
template <typename T>
class GuardedCell {
 public:
  template <typename U>
  void put(U&& value, const char* /*site*/ = nullptr) {
    value_ = std::forward<U>(value);
  }
  [[nodiscard]] const T& get(const char* /*site*/ = nullptr) const noexcept {
    return value_;
  }
  void move_to(T& out, const char* /*site*/ = nullptr) {
    out = std::move(value_);
  }

 private:
  T value_{};
};

// The cells a node or queue pairs with its counted word `Word`: the types
// above and port::Atomic, unless the word's header specializes these (the
// simulator's word does).
template <typename T, typename Word>
struct CellFor {
  using type = ValueCell<T>;
};
template <typename T, typename Word>
using CellOf = typename CellFor<T, Word>::type;

template <typename T, typename Word>
struct GuardedFor {
  using type = GuardedCell<T>;
};
template <typename T, typename Word>
using GuardedOf = typename GuardedFor<T, Word>::type;

template <typename T, typename Word>
struct AtomicFor {
  using type = port::Atomic<T>;
};
template <typename T, typename Word>
using AtomicOf = typename AtomicFor<T, Word>::type;

}  // namespace msq::mem
