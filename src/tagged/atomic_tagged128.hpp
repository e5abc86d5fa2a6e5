// 128-bit counted word: a 32-bit node-pool index in the low half and a
// 64-bit modification counter in the high half, CASed with x86-64
// cmpxchg16b (the paper's "double-word compare_and_swap" option).
//
// It has the same interface as TaggedIndex/AtomicTagged, so MsQueue and
// FreeList run on either word unchanged (their `Word` is a type
// parameter).  The wide word buys a counter that cannot wrap in practice
// and costs a 16-byte CAS, a CAS-based load and a 16-byte-aligned node;
// bench/ablate_reclaim measures that trade.
//
// We use the __sync builtin on unsigned __int128 rather than
// std::atomic<struct>, because GCC lowers the latter to libatomic calls that
// may take a lock; __sync_val_compare_and_swap with -mcx16 emits an inline
// cmpxchg16b, which is the lock-free primitive the algorithms require.
#pragma once

#include <atomic>
#include <cstdint>

#include "tagged/tagged_index.hpp"

namespace msq::tagged {

class TaggedIndex128 {
 public:
  constexpr TaggedIndex128() noexcept = default;
  constexpr TaggedIndex128(std::uint32_t index, std::uint64_t count) noexcept
      : index_(index), count_(count) {}

  [[nodiscard]] constexpr std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] constexpr std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] constexpr bool is_null() const noexcept {
    return index_ == kNullIndex;
  }

  /// The value a successful CAS should install: new target, counter + 1.
  [[nodiscard]] constexpr TaggedIndex128 successor(std::uint32_t new_index) const noexcept {
    return TaggedIndex128(new_index, count_ + 1);
  }

  [[nodiscard]] constexpr unsigned __int128 bits() const noexcept {
    return static_cast<unsigned __int128>(count_) << 64 | index_;
  }
  static constexpr TaggedIndex128 from_bits(unsigned __int128 bits) noexcept {
    return TaggedIndex128(static_cast<std::uint32_t>(bits),
                          static_cast<std::uint64_t>(bits >> 64));
  }

  friend constexpr bool operator==(TaggedIndex128, TaggedIndex128) noexcept = default;

 private:
  std::uint32_t index_ = kNullIndex;
  std::uint64_t count_ = 0;
};

/// 16-byte-aligned atomic cell for TaggedIndex128 driven by cmpxchg16b.
class alignas(16) AtomicTagged128 {
 public:
  AtomicTagged128() noexcept = default;
  explicit AtomicTagged128(TaggedIndex128 initial) noexcept
      : bits_(initial.bits()) {}
  AtomicTagged128(const AtomicTagged128&) = delete;
  AtomicTagged128& operator=(const AtomicTagged128&) = delete;

  // The memory_order parameters document the WEAKEST ordering each call
  // site requires; the __sync builtins always emit a full-barrier
  // cmpxchg16b, which satisfies any requested order.  Requiring the
  // parameter keeps these sites under the same explicit-order discipline
  // as the single-word cells (tools/atomics_lint.py).

  /// Atomic 128-bit load.  Implemented as CAS(x, x): on x86-64 there is no
  /// plain 16-byte atomic load pre-AVX guarantees, and the algorithms only
  /// ever need a consistent snapshot, which this provides.
  [[nodiscard]] TaggedIndex128 load(std::memory_order order) const noexcept {
    static_cast<void>(order);  // full barrier regardless (see above)
    return TaggedIndex128::from_bits(__sync_val_compare_and_swap(&bits_, 0, 0));
  }

  void store(TaggedIndex128 value, std::memory_order order) noexcept {
    static_cast<void>(order);  // full barrier regardless (see above)
    // First guess 0: a wrong guess costs one failed CAS, and the cell is
    // never read non-atomically.
    unsigned __int128 expected = 0;
    const unsigned __int128 desired = value.bits();
    for (;;) {
      const unsigned __int128 prev =
          __sync_val_compare_and_swap(&bits_, expected, desired);
      if (prev == expected) return;
      expected = prev;
    }
  }

  bool compare_and_swap(TaggedIndex128 expected, TaggedIndex128 desired,
                        std::memory_order order) noexcept {
    static_cast<void>(order);  // full barrier regardless (see above)
    return __sync_bool_compare_and_swap(&bits_, expected.bits(), desired.bits());
  }

 private:
  mutable unsigned __int128 bits_ = TaggedIndex128{}.bits();
};

static_assert(sizeof(AtomicTagged128) == 16);

}  // namespace msq::tagged
