// Test-support: a minimal simulated Treiber stack parameterised on pointer
// representation, shared by the directed ABA test (sim_aba_test.cpp) and
// the systematic exploration test (sim_explore_test.cpp).
//
// `Counted == true` packs (index, count) as TaggedIndex bits (the paper's
// ABA defence); `false` uses bare node indices (the vulnerable variant).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim::testing {

inline constexpr std::uint64_t kNullNode = ~0ull;

template <bool Counted>
class TinyStack {
 public:
  TinyStack(Engine& engine, std::uint32_t capacity)
      : nodes_(engine.memory().alloc(capacity)),
        top_(engine.memory().alloc(1)) {
    engine.memory().word(top_) = encode(kNullNode, 0);
  }

  [[nodiscard]] Addr next_addr(std::uint64_t node) const {
    return nodes_ + static_cast<Addr>(node);
  }

  void push(Proc& p, std::uint64_t node) {
    for (;;) {
      const std::uint64_t top = p.read(top_);
      p.write(next_addr(node), encode(index_of(top), 0));
      const std::uint64_t old = p.cas(top_, top, bump(top, node));
      if (old == top) return;
    }
  }

  std::uint64_t pop(Proc& p) {
    for (;;) {
      const std::uint64_t top = p.read(top_);
      if (index_of(top) == kNullNode) return kNullNode;
      const std::uint64_t next = p.read(next_addr(index_of(top)));
      p.at("POP_CAS");
      const std::uint64_t old = p.cas(top_, top, bump(top, index_of(next)));
      if (old == top) {
        return index_of(top);
      }
    }
  }

  /// Walk the stack raw (between steps) and return the node sequence.
  [[nodiscard]] std::vector<std::uint64_t> snapshot(const Engine& engine) const {
    std::vector<std::uint64_t> out;
    std::uint64_t it = index_of(engine.memory().peek(top_));
    while (it != kNullNode && out.size() < 16) {
      out.push_back(it);
      it = index_of(engine.memory().peek(next_addr(it)));
    }
    return out;
  }

  static std::uint64_t index_of(std::uint64_t bits) {
    if constexpr (Counted) {
      const auto t = tagged::TaggedIndex::from_bits(bits);
      return t.is_null() ? kNullNode : t.index();
    } else {
      return bits;
    }
  }
  static std::uint64_t encode(std::uint64_t index, std::uint32_t count) {
    if constexpr (Counted) {
      return tagged::TaggedIndex(index == kNullNode
                                     ? tagged::kNullIndex
                                     : static_cast<std::uint32_t>(index),
                                 count)
          .bits();
    } else {
      return index;
    }
  }
  /// Value a successful CAS installs given observed `top` and new index.
  static std::uint64_t bump(std::uint64_t observed_top, std::uint64_t index) {
    if constexpr (Counted) {
      const auto t = tagged::TaggedIndex::from_bits(observed_top);
      return t
          .successor(index == kNullNode ? tagged::kNullIndex
                                        : static_cast<std::uint32_t>(index))
          .bits();
    } else {
      return index;
    }
  }

 private:
  Addr nodes_;
  Addr top_;
};

}  // namespace msq::sim::testing
