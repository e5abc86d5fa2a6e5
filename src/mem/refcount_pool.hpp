// Valois's reference-counting memory management for lock-free structures,
// with the corrections of Michael & Scott TR 599 ("Correction of a Memory
// Management Method for Lock-Free Data Structures", Dec 1995).
//
// The scheme (paper section 1): every node carries a reference count that
// reflects the number of links to it -- structure links (Head, Tail, next
// fields) and temporary process-local references.  SafeRead atomically
// increments the count of the node a shared cell points to and re-validates
// the cell; Release decrements and, when the count reaches zero, reclaims
// the node: its own outgoing link is released (recursively) and the node is
// pushed to a free list.  Because a node's count cannot drop to zero while
// any process or link refers to it, freed nodes are never reachable and the
// ABA problem cannot arise -- no modification counters needed.
//
// The TR 599 corrections folded in here:
//  * the count is stored as (count << 1 | claim): DecrementAndTestAndSet
//    atomically moves 1 -> claim so exactly one releaser reclaims a node;
//  * SafeRead increments BEFORE validating and undoes the increment with a
//    full Release on mismatch, so a stale increment of a recycled node is
//    harmless (paired decrement, possible recursive reclaim);
//  * nodes are handed out with count 1 (the allocator's own reference) and
//    the claim bit cleared.
//
// The famous flaw is preserved faithfully (it is the point of experiment
// A4): a delayed process holding one reference pins that node AND, because
// reclamation is what releases a node's next link, every later node -- so a
// bounded queue can exhaust an arbitrarily large pool (the paper ran out of
// 64,000 nodes with a 12-item queue).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "mem/node_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/counters.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::mem {

/// A node managed by RefCountPool.  Queues embed their payload next to it.
/// `next` doubles as the free-list link, exactly as in the MS queues.
/// `Word` is the counted word of the links; the count's atomic cell is the
/// one the word selects (mem::AtomicOf), so the simulator runs the pool
/// over its own words (sim/shipped.hpp).
template <typename Word>
struct BasicRcHeader {
  using word_type = Word;
  Word next;
  AtomicOf<std::uint32_t, Word> refct_claim;  // (count << 1) | claim
};
using RcHeader = BasicRcHeader<tagged::AtomicTagged>;

/// Node must contain a BasicRcHeader as `rc`.  Each access passes its site
/// name: "valois.*" rows of sim/mo_table.hpp for the reference-count
/// protocol, "rc.*" for the free list under it.
template <typename Node>
class RefCountPool {
 public:
  using Word = typename decltype(Node::rc)::word_type;
  using Link = tagged::ValueOf<Word>;

  explicit RefCountPool(std::uint32_t capacity) : pool_(capacity) {
    // Build the free list privately; freed/claimed nodes have refct 0|claim.
    for (std::uint32_t i = 0; i < capacity; ++i) {
      // relaxed: construction is single-threaded (proof: test:tests/refcount_pool_test.cpp)
      pool_[i].rc.refct_claim.store(1, std::memory_order_relaxed);  // claimed
      push_free(i);
    }
  }

  [[nodiscard]] Node& node(std::uint32_t index) noexcept { return pool_[index]; }
  [[nodiscard]] const Node& node(std::uint32_t index) const noexcept {
    return pool_[index];
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return pool_.capacity(); }

  /// Allocate a node with reference count 1 (the caller's reference) or
  /// return kNullIndex if the pool is exhausted.
  [[nodiscard]] std::uint32_t try_allocate() noexcept {
    for (;;) {
      const Link top = free_top_.load(std::memory_order_acquire, "rc.pop_top");
      if (top.is_null()) {
        MSQ_COUNT(kPoolRefuse);
        return tagged::kNullIndex;
      }
      const Link next = pool_[top.index()].rc.next.load(
          std::memory_order_acquire, "rc.pop_next");
      if (free_top_.compare_and_swap(top, top.successor(next.index()),
                                     std::memory_order_acq_rel, "rc.pop_cas")) {
        Node& n = pool_[top.index()];
        n.rc.next.store(Link{}, std::memory_order_release,
                        "valois.init_next");  // NULL
        // Clear the claim bit and take the allocator's reference in one
        // atomic add (+2 for the reference, -1 for the claim bit).  A plain
        // store would erase increments from concurrent stale SafeReads,
        // which is one of the races TR 599 fixes.
        add_count(top.index(), 1);
        MSQ_COUNT(kPoolGet);
        MSQ_POOL_GAUGE(1);
        return top.index();
      }
    }
  }

  /// Valois SafeRead: dereference the shared cell `loc` acquiring a counted
  /// reference to the target.  Returns the exact (index, count) value seen
  /// -- callers use it as the `expected` of a subsequent CAS -- or a null
  /// link if the cell was NULL (no reference taken).
  [[nodiscard]] Link safe_read(const Word& loc) noexcept {
    for (;;) {
      const Link seen = loc.load(std::memory_order_acquire, "valois.ptr_read");
      if (seen.is_null()) return seen;
      add_reference(seen.index());
      // Re-validate: if the cell moved on, our increment may have landed on
      // a recycled node; Release undoes it (and reclaims if we resurrected
      // a dying node).  This re-check is the heart of the TR 599 fix.
      if (loc.load(std::memory_order_acquire, "valois.ptr_reread") == seen) {
        return seen;
      }
      release(seen.index());
    }
  }

  /// Add a reference for a link about to be installed (CopyRef).
  void add_reference(std::uint32_t index) noexcept { add_count(index, 2); }

  /// Drop one reference; reclaim the node if we held the last one.
  void release(std::uint32_t index) noexcept {
    if (index == tagged::kNullIndex) return;
    if (decrement_and_test_and_set(pool_[index].rc.refct_claim)) {
      reclaim(index);
    }
  }

  /// Free-list occupancy (racy; for tests and the exhaustion experiment).
  [[nodiscard]] std::size_t unsafe_free_count() const noexcept {
    std::size_t n = 0;
    for (Link it = free_top_.load(std::memory_order_acquire); !it.is_null();
         it = pool_[it.index()].rc.next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

  /// Is node `index` referenced and unclaimed (racy; structural checks)?
  [[nodiscard]] bool unsafe_live(std::uint32_t index) const noexcept {
    const std::uint32_t rc =
        pool_[index].rc.refct_claim.load(std::memory_order_acquire);
    return (rc & 1u) == 0 && rc >= 2;
  }

 private:
  void add_count(std::uint32_t index, std::uint32_t delta) noexcept {
    pool_[index].rc.refct_claim.fetch_add(delta, std::memory_order_acq_rel,
                                          "valois.refct_faa");
  }

  /// TR 599 DecrementAndTestAndSet: subtract one reference (2); if the
  /// count hits zero, atomically set the claim bit and report that the
  /// caller must reclaim.  CAS loop because decrement and claim must be one
  /// atomic transition (two bare FAAs could both see zero).
  template <typename Count>
  static bool decrement_and_test_and_set(Count& rc) noexcept {
    // relaxed: optimistic first read; the CAS below validates and orders (proof: mo-sweep:valois.refct_cas)
    std::uint32_t old = rc.load(std::memory_order_relaxed, "valois.refct_load");
    for (;;) {
      assert(old >= 2 && "release without matching reference");
      const std::uint32_t desired = (old == 2) ? 1u : old - 2;
      // relaxed: CAS failure reloads `old` and retries; no payload is read (proof: mo-sweep:valois.refct_cas)
      if (rc.compare_exchange_weak(old, desired, std::memory_order_acq_rel,
                                   std::memory_order_relaxed,
                                   "valois.refct_cas")) {
        return old == 2;
      }
    }
  }

  /// Sole owner of a dead node: release its outgoing link, recycle it.
  /// This is where the pinning cascade comes from -- a node that is never
  /// reclaimed never releases its successor.
  void reclaim(std::uint32_t index) noexcept {
    MSQ_POOL_GAUGE(-1);
    Node& n = pool_[index];
    const Link next =
        n.rc.next.load(std::memory_order_acquire, "valois.reclaim_next");
    if (!next.is_null()) release(next.index());
    push_free(index);
  }

  void push_free(std::uint32_t index) noexcept {
    for (;;) {
      const Link top = free_top_.load(std::memory_order_acquire, "rc.push_top");
      pool_[index].rc.next.store(Link(top.index(), 0), std::memory_order_release,
                                 "rc.push_link");
      if (free_top_.compare_and_swap(top, top.successor(index),
                                     std::memory_order_acq_rel, "rc.push_cas")) {
        return;
      }
    }
  }

  NodePool<Node> pool_;
  Word free_top_;
};

}  // namespace msq::mem
