// A directed, deterministic reproduction of the ABA problem (paper
// section 1), and its defeat by modification counters.
//
// Scenario (the classic pop race on a Treiber stack, the same structure as
// the queues' free list):
//
//   stack: Top -> A -> B.
//   P1 starts a pop: reads Top (= A), reads A.next (= B), then STALLS.
//   P2 pops A, pops B, then pushes A back.        (A-B-A on Top)
//   P1 resumes and executes CAS(Top, A, B).
//
// With bare pointers the CAS succeeds -- installing B, which is no longer
// in the stack -- and the structure is corrupt.  With counted pointers the
// counter has advanced, the CAS fails, and P1 retries correctly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {
namespace {

constexpr std::uint64_t kNull = ~0ull;

/// A minimal simulated Treiber stack parameterised on pointer
/// representation.  `Counted` packs (index, count) as TaggedIndex bits;
/// otherwise cells hold bare node indices.
template <bool Counted>
class TinyStack {
 public:
  TinyStack(Engine& engine, std::uint32_t capacity)
      : nodes_(engine.memory().alloc(capacity)),
        top_(engine.memory().alloc(1)) {
    engine.memory().word(top_) = encode(kNull, 0);
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
      if (index_of(top) == kNull) return kNull;
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
    while (it != kNull && out.size() < 16) {
      out.push_back(it);
      it = index_of(engine.memory().peek(next_addr(it)));
    }
    return out;
  }

 private:
  static std::uint64_t index_of(std::uint64_t bits) {
    if constexpr (Counted) {
      const auto t = tagged::TaggedIndex::from_bits(bits);
      return t.is_null() ? kNull : t.index();
    } else {
      return bits;
    }
  }
  static std::uint64_t encode(std::uint64_t index, std::uint32_t count) {
    if constexpr (Counted) {
      return tagged::TaggedIndex(index == kNull ? tagged::kNullIndex
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
      return t.successor(index == kNull ? tagged::kNullIndex
                                        : static_cast<std::uint32_t>(index))
          .bits();
    } else {
      return index;
    }
  }

  Addr nodes_;
  Addr top_;
};

template <bool Counted>
void setup_stack(Proc& p, TinyStack<Counted>& stack) {
  stack.push(p, 1);  // B below
  stack.push(p, 0);  // A on top:  Top -> A(0) -> B(1)
}

template <bool Counted>
void victim_pop(Proc& p, TinyStack<Counted>& stack, std::uint64_t& out) {
  out = stack.pop(p);
}

template <bool Counted>
void aba_mutator(Proc& p, TinyStack<Counted>& stack, bool& ok) {
  const std::uint64_t a = stack.pop(p);
  const std::uint64_t b = stack.pop(p);
  ok = (a == 0 && b == 1);
  stack.push(p, a);  // push A back: the second "A" of A-B-A
}

template <bool Counted>
struct AbaOutcome {
  std::uint64_t victim_got = kNull;
  std::vector<std::uint64_t> final_stack;
};

template <bool Counted>
AbaOutcome<Counted> run_aba_scenario() {
  Engine engine;
  TinyStack<Counted> stack(engine, 4);
  {
    const auto id = engine.spawn(0, [&](Proc& p) { return setup_stack(p, stack); });
    while (engine.step(id)) {
    }
  }
  AbaOutcome<Counted> outcome;
  bool mutator_ok = false;
  const auto victim = engine.spawn(0, [&](Proc& p) {
    return victim_pop(p, stack, outcome.victim_got);
  });
  const auto mutator = engine.spawn(0, [&](Proc& p) {
    return aba_mutator(p, stack, mutator_ok);
  });

  // Directed schedule: victim reads Top and A.next, stalls at its CAS...
  engine.freeze_at_label(victim, "POP_CAS");
  while (!engine.done(victim) && engine.step(victim)) {
    if (std::string_view(engine.label(victim)) == "POP_CAS") break;
  }
  // ...mutator performs the full A-B-A...
  while (engine.step(mutator)) {
  }
  EXPECT_TRUE(mutator_ok);
  // ...victim resumes and attempts CAS(Top, A, B).
  engine.freeze_at_label(victim, nullptr);
  engine.unfreeze(victim);
  while (engine.step(victim)) {
  }
  outcome.final_stack = stack.snapshot(engine);
  return outcome;
}

TEST(AbaProblem, BarePointersCorruptTheStack) {
  const auto outcome = run_aba_scenario<false>();
  // The stale CAS succeeded: the victim "popped" A (again) and installed B
  // -- a node that is NOT in the stack anymore.  Corruption: B surfaced.
  EXPECT_EQ(outcome.victim_got, 0u);
  ASSERT_FALSE(outcome.final_stack.empty());
  EXPECT_EQ(outcome.final_stack.front(), 1u)
      << "expected the freed node B to surface -- the ABA corruption";
}

TEST(AbaProblem, ModificationCountersDefeatTheRace) {
  const auto outcome = run_aba_scenario<true>();
  // The victim's CAS failed (counter advanced); it retried and correctly
  // popped the reinstated A, leaving an EMPTY stack.
  EXPECT_EQ(outcome.victim_got, 0u);
  EXPECT_TRUE(outcome.final_stack.empty())
      << "stack should be empty after both pops completed correctly";
}

}  // namespace
}  // namespace msq::sim
