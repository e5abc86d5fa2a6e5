// Simulated node pool + Treiber free list, the allocation substrate of the
// hand-written list-based models (MC, PLJ, two-lock, Valois).  It mirrors
// mem/node_pool.hpp + mem/freelist.hpp, orders and link-tag discipline
// included; the MS queue runs the shipped mem::FreeList itself
// (sim/shipped.hpp).
//
// Node layout (in simulated words): [0]=value, [1]=next (TaggedIndex bits),
// [2..]=algorithm extras (e.g. the Valois reference count).
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {

class SimNodePool {
 public:
  static constexpr std::uint32_t kValueWord = 0;
  static constexpr std::uint32_t kNextWord = 1;

  SimNodePool(Engine& engine, std::uint32_t capacity,
              std::uint32_t words_per_node)
      : memory_(engine.memory()),
        capacity_(capacity),
        words_per_node_(words_per_node),
        base_(engine.memory().alloc(capacity * words_per_node)),
        free_top_(engine.memory().alloc(1)) {
    // Thread every node onto the free list (construction is single-site;
    // raw memory writes, no simulated cost -- matches the paper's
    // pre-initialised free list).
    SimMemory& mem = engine.memory();
    tagged::TaggedIndex top{};
    for (std::uint32_t i = 0; i < capacity; ++i) {
      mem.word(next_addr(i)) = tagged::TaggedIndex(top.index(), 0).bits();
      top = top.successor(i);
    }
    mem.word(free_top_) = top.bits();
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] Addr value_addr(std::uint32_t node) const noexcept {
    return base_ + node * words_per_node_ + kValueWord;
  }
  [[nodiscard]] Addr next_addr(std::uint32_t node) const noexcept {
    return base_ + node * words_per_node_ + kNextWord;
  }
  [[nodiscard]] Addr extra_addr(std::uint32_t node, std::uint32_t slot) const noexcept {
    return base_ + node * words_per_node_ + 2 + slot;
  }
  /// initialize(Q)'s new_node(), before any process runs: pop a node raw
  /// and give it a null link.
  [[nodiscard]] std::uint32_t take_dummy() {
    const auto top = tagged::TaggedIndex::from_bits(memory_.peek(free_top_));
    memory_.word(free_top_) = memory_.peek(next_addr(top.index()));
    memory_.word(next_addr(top.index())) = tagged::TaggedIndex{}.bits();
    return top.index();
  }

  /// Treiber pop (lock-free).  Returns tagged::kNullIndex when exhausted.
  std::uint32_t allocate(Proc& p) {
    for (;;) {
      const auto top = tagged::TaggedIndex::from_bits(
          p.read(free_top_, MemOrder::kAcquire));
      if (top.is_null()) return tagged::kNullIndex;
      const auto next = tagged::TaggedIndex::from_bits(
          p.read(next_addr(top.index()), MemOrder::kAcquire));
      if (p.cas(free_top_, top.bits(), top.successor(next.index()).bits(),
                MemOrder::kAcqRel) == top.bits()) {
        return top.index();
      }
    }
  }

  /// Treiber push.  Like FreeList::push, it bumps the node's own link
  /// count, so the count stays monotone across recycles and a stale link
  /// CAS against an earlier life of the node cannot succeed.  The count is
  /// read without a step: the node is private to the caller here (nobody
  /// else writes its link until the push CAS publishes it), so the read
  /// commutes with every other step, and these models keep the step and
  /// cost profile their figures were calibrated with.
  void free(Proc& p, std::uint32_t node) {
    const std::uint32_t count =
        tagged::TaggedIndex::from_bits(p.engine().memory().peek(next_addr(node)))
            .count() + 1;
    for (;;) {
      const auto top = tagged::TaggedIndex::from_bits(
          p.read(free_top_, MemOrder::kAcquire));
      p.write(next_addr(node), tagged::TaggedIndex(top.index(), count).bits(),
              MemOrder::kRelease);
      if (p.cas(free_top_, top.bits(), top.successor(node).bits(),
                MemOrder::kAcqRel) == top.bits()) {
        return;
      }
    }
  }

 private:
  SimMemory& memory_;
  std::uint32_t capacity_;
  std::uint32_t words_per_node_;
  Addr base_;
  Addr free_top_;
};

}  // namespace msq::sim
