// Load generator and correctness gate of the repo benchmark.
//
// Every queue family is driven only through its public try_enqueue /
// try_dequeue.  One *slice* builds a fresh queue, starts pinned worker
// threads, runs one workload against it for a fixed window, joins, drains
// and hands back what each thread saw.  bench.cpp strings slices together
// into a run and turns them into metrics; gate_test.cpp feeds a planted
// faulty queue through the same slices to prove the gate catches it.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "port/cpu.hpp"
#include "port/prng.hpp"

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- items --

// An item names its producer and its per-producer sequence number (from 1),
// so a consumer can tell lost, duplicated, fabricated and reordered items
// apart.  In handoff-open the pair is also the item's stamp: it indexes the
// producer's arrival schedule and is the trace id its spans share.
inline constexpr unsigned kSeqBits = 40;
constexpr std::uint64_t make_item(std::uint32_t producer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(producer) << kSeqBits) | seq;
}
constexpr std::uint32_t item_producer(std::uint64_t item) {
  return static_cast<std::uint32_t>(item >> kSeqBits);
}
constexpr std::uint64_t item_seq(std::uint64_t item) {
  return item & ((std::uint64_t{1} << kSeqBits) - 1);
}

// ----------------------------------------------------------------- gate --

/// Bit set over sequence numbers.  Its words are zero-filled when they are
/// allocated, so every page of it is resident from then on: a slice builds
/// its bitmaps before the window opens, and what they add to the peak RSS
/// does not depend on how many items the window moves.
class Bitmap {
 public:
  /// Makes room for bits [0, bits) up front.
  void reserve(std::size_t bits) {
    if ((bits >> 6) + 1 > w_.size()) w_.resize((bits >> 6) + 1);
  }

  /// Sets bit i; returns whether it was already set.
  bool test_and_set(std::uint64_t i) {
    const std::size_t w = i >> 6;
    if (w >= w_.size()) w_.resize(std::max(w + 1, 2 * w_.size()));
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    const bool was = (w_[w] & mask) != 0;
    w_[w] |= mask;
    return was;
  }
  [[nodiscard]] std::size_t words() const { return w_.size(); }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return w_[w]; }
  [[nodiscard]] std::size_t bytes() const { return w_.capacity() * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> w_;
};

/// What one consumer dequeued: a bitmap of sequence numbers per producer.
/// Duplicates it dequeued itself and per-producer order are checked
/// inline; duplicates across consumers and losses are found by judge().
/// Its state lives inline, not in separate small heap blocks, so the
/// ledgers of two threads never share a cache line (see Worker).
class Ledger {
 public:
  static constexpr std::uint32_t kMaxProducers = 4;

  /// `expect` sizes each producer's bitmap (it grows past that if needed).
  Ledger(std::uint32_t producers, std::uint64_t expect) : producers_(producers) {
    if (producers > kMaxProducers) throw std::length_error("perfbench: too many producers");
    for (std::uint32_t p = 0; p < producers; ++p) seen_[p].reserve(expect);
  }

  void record(std::uint64_t item, bool check_fifo) {
    const std::uint32_t p = item_producer(item);
    const std::uint64_t s = item_seq(item);
    if (p >= producers_ || s == 0) {
      ++fabricated_;
      return;
    }
    if (seen_[p].test_and_set(s)) {
      ++duplicated_;
      return;
    }
    if (check_fifo) {
      // A FIFO queue hands one producer's items to any one consumer in
      // the order that producer enqueued them.
      if (s < last_[p]) {
        ++out_of_order_;
      } else {
        last_[p] = s;
      }
    }
  }

  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t out_of_order() const { return out_of_order_; }
  [[nodiscard]] std::uint64_t fabricated() const { return fabricated_; }
  [[nodiscard]] const Bitmap& bits(std::uint32_t p) const { return seen_[p]; }
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (const Bitmap& b : seen_) n += b.bytes();
    return n;
  }

 private:
  std::uint32_t producers_;
  std::array<Bitmap, kMaxProducers> seen_{};
  std::array<std::uint64_t, kMaxProducers> last_{};
  std::uint64_t duplicated_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t fabricated_ = 0;
};

/// What one producer offered: sequence numbers 1..issued, minus the ones
/// it shed after the queue kept refusing them.
struct ProducerLog {
  std::uint64_t issued = 0;
  std::vector<std::uint64_t> shed;
};

/// Conservation and order verdict over one slice.  Every item offered is
/// an attempted op; a failed op was lost, duplicated, fabricated, seen out
/// of per-producer order, or shed.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t fabricated = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t shed = 0;

  [[nodiscard]] std::uint64_t failed() const {
    return lost + duplicated + fabricated + out_of_order + shed;
  }
  Verdict& operator+=(const Verdict& o) {
    attempted += o.attempted;
    lost += o.lost;
    duplicated += o.duplicated;
    fabricated += o.fabricated;
    out_of_order += o.out_of_order;
    shed += o.shed;
    return *this;
  }
};

/// enqueued = dequeued + drained, item by item: each offered, unshed item
/// must appear in exactly one consumer's ledger exactly once.
inline Verdict judge(const std::vector<ProducerLog>& producers,
                     const std::vector<const Ledger*>& consumers) {
  Verdict v;
  for (const Ledger* c : consumers) {
    v.duplicated += c->duplicated();
    v.out_of_order += c->out_of_order();
    v.fabricated += c->fabricated();
  }
  for (std::uint32_t p = 0; p < producers.size(); ++p) {
    const ProducerLog& log = producers[p];
    v.attempted += log.issued;
    v.shed += log.shed.size();
    std::vector<std::uint64_t> all((log.issued >> 6) + 1, 0);
    for (const Ledger* c : consumers) {
      const Bitmap& bits = c->bits(p);
      for (std::size_t w = 0; w < bits.words(); ++w) {
        const std::uint64_t b = bits.word(w);
        if (b == 0) continue;
        if (w >= all.size()) {  // sequence numbers never issued
          v.fabricated += static_cast<std::uint64_t>(std::popcount(b));
          continue;
        }
        v.duplicated += static_cast<std::uint64_t>(std::popcount(all[w] & b));
        all[w] |= b;
      }
    }
    // Bits above `issued` in the last word, and seq 0, were never issued.
    const std::uint64_t past = all.back() & ~((std::uint64_t{2} << (log.issued & 63)) - 1);
    v.fabricated += static_cast<std::uint64_t>(std::popcount(past));
    all.back() &= ~past;
    all.front() &= ~std::uint64_t{1};
    for (const std::uint64_t s : log.shed) {
      const std::uint64_t mask = std::uint64_t{1} << (s & 63);
      if (all[s >> 6] & mask) {  // a shed item must never come out
        ++v.fabricated;
        all[s >> 6] &= ~mask;
      }
    }
    std::uint64_t present = 0;
    for (const std::uint64_t w : all) present += static_cast<std::uint64_t>(std::popcount(w));
    v.lost += log.issued - log.shed.size() - present;
  }
  return v;
}

// ---------------------------------------------------------------- spans --

/// Id of the one workload span a run writes; family spans hang off it.
inline constexpr std::uint64_t kWorkloadSpan = 1;

/// One span of the traced run.  Spans nest workload > family > op; an op
/// span is named `<family>.<op>`, and its trace id is the item it carried
/// (0 for an empty dequeue).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  const char* name = "";
  const char* op = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// --------------------------------------------------------------- slices --

enum class Kind { kPairs, kHandoff };

/// Op spans kept per thread per slice; durations of every sampled call
/// are kept regardless, this only bounds the span file.
inline constexpr std::size_t kSpansPerThread = 128;
/// Closed loops read the clock once every kCheckEvery pairs: to stop at
/// the deadline, to stamp that item for its sojourn, and to see stalls.
inline constexpr std::uint64_t kCheckEvery = 64;
/// The traced run times 1 in kSampleEvery calls into a queue.
inline constexpr std::uint64_t kSampleEvery = 32;
/// A generator stall longer than this marks an arrival (open loop) or a
/// check interval (closed loop) late.  Ten times the slowest family's
/// normal check interval: only a descheduled or starved thread is late.
inline constexpr std::uint64_t kLateNs = 1'000'000;
/// An open-loop producer retries a refused item for this long, then sheds.
inline constexpr std::uint64_t kShedAfterNs = 10'000'000;

struct SliceSpec {
  Kind kind = Kind::kPairs;
  std::uint32_t threads = 1;    // kPairs: each thread produces and consumes
  std::uint32_t producers = 0;  // kHandoff: threads [0, producers) produce,
                                // the rest consume
  std::uint64_t window_ns = 0;
  double rate_per_s = 0;        // kHandoff: total offered rate
  std::uint64_t seed = 0;
  std::uint32_t capacity = 0;
  bool fifo = true;             // check per-producer order
  bool traced = false;
  std::vector<int> cpus;            // pin thread i to cpus[i % size]
  std::uint64_t core_probe_ns = 0;  // time core_cas_per_us after the window
  std::uint64_t span_base = 0;      // traced: id of this slice's first span
  const char* family = "family";    // traced: names the slice's spans
};

/// Fixed-capacity sample buffer that stays uniform over a whole slice:
/// when full it keeps every other sample and from then on takes every
/// other offer.  Its buffer is zero-filled when it is built, before the
/// window opens, so the measured loop never allocates or faults in a page.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : v_(capacity & ~std::size_t{1}) {}

  void offer(std::uint64_t x) {
    if (v_.empty() || ++offered_ % stride_ != 0) return;
    if (n_ == v_.size()) {
      for (std::size_t i = 0; i < n_ / 2; ++i) v_[i] = v_[2 * i + 1];
      n_ /= 2;
      stride_ *= 2;
    }
    v_[n_++] = x;
  }
  [[nodiscard]] std::span<const std::uint64_t> values() const { return {v_.data(), n_}; }
  [[nodiscard]] std::size_t bytes() const { return v_.capacity() * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> v_;
  std::size_t n_ = 0;
  std::uint64_t offered_ = 0, stride_ = 1;
};

/// Samples kept per thread per slice and kind.
inline constexpr std::size_t kSampleCap = std::size_t{1} << 15;

/// Everything one worker thread saw.  Written only by its own thread until
/// the slice joins, and cache-line aligned so that neighbouring workers'
/// counters never false-share: that would add contention the queue under
/// test does not have, and make it depend on where the heap put them.
struct alignas(msq::port::kCacheLine) Worker {
  /// A worker that `consumes` gets a ledger sized for `expect` items per
  /// producer and a sojourn buffer; a pure producer needs neither.
  Worker(std::uint32_t producers, std::uint64_t expect, bool consumes, bool traced,
         const char* family)
      : ledger(producers, consumes ? expect : 0),
        sojourn_ns(consumes ? kSampleCap : 0),
        enq_ns(traced ? kSampleCap : 0),
        deq_ns(traced ? kSampleCap : 0),
        family(family) {
    if (traced) spans.reserve(kSpansPerThread);
  }

  /// What the ledger and sample buffers hold resident.
  [[nodiscard]] std::size_t bytes() const {
    return ledger.bytes() + sojourn_ns.bytes() + enq_ns.bytes() + deq_ns.bytes();
  }

  Ledger ledger;
  ProducerLog log;
  bool pinned = false;
  double core_cas_per_us = 0;
  std::uint64_t enq_ok = 0, enq_refused = 0, deq_ok = 0, deq_empty = 0;
  std::uint64_t end_ns = 0;
  Samples sojourn_ns;
  // Generator health: stalls seen at each arrival or check.
  std::uint64_t gen_checks = 0, gen_late = 0, gen_max_lag_ns = 0;
  // Traced only.
  Samples enq_ns, deq_ns;
  const char* family;          // names this worker's op spans
  std::uint64_t clock_ns = 0;  // subtracted from every timed call
  std::uint64_t sampled_busy_ns = 0;
  std::vector<Span> spans;
  std::uint64_t next_span = 0;

  void observe_lag(std::uint64_t lag) {
    ++gen_checks;
    if (lag > kLateNs) ++gen_late;
    gen_max_lag_ns = std::max(gen_max_lag_ns, lag);
  }

  /// Record the duration of one sampled call, net of the clock.
  void sample(Samples& into, std::uint64_t start, std::uint64_t end) {
    const std::uint64_t net = end - start > clock_ns ? end - start - clock_ns : 0;
    into.offer(net);
    sampled_busy_ns += net;
  }

  /// Keep one op span, while there is room.
  void span(const char* op, std::uint64_t trace, std::uint64_t start, std::uint64_t end,
            std::uint64_t parent) {
    if (spans.size() < kSpansPerThread) {
      spans.push_back(Span{next_span++, parent, trace, family, op, start, end});
    }
  }

  /// Both, for a call that ran from `start` until now.
  void timed(Samples& into, const char* op, std::uint64_t trace, std::uint64_t start,
             std::uint64_t parent) {
    const std::uint64_t end = now_ns();
    sample(into, start, end);
    span(op, trace, start, end, parent);
  }
};

struct SliceResult {
  std::uint64_t setup_ns = 0;
  std::size_t bookkeeping_bytes = 0;  // ledgers and sample buffers, resident
  std::uint64_t t0 = 0;
  std::vector<Worker> workers;
  std::vector<Span> family_spans;
  std::uint64_t drained = 0;
  Verdict verdict;
  msq::obs::Snapshot counters;
  std::int64_t pool_hwm = 0;
};

/// What a span measures with nothing inside it: the median gap between
/// two back-to-back clock reads on the calling thread's CPU.
inline std::uint64_t clock_cost_ns() {
  std::vector<std::uint64_t> d(2001);
  for (auto& x : d) {
    const std::uint64_t a = now_ns();
    x = now_ns() - a;
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

/// Speed of the calling thread's core: compare-and-swaps per microsecond
/// on a private cache line, over `ns`.  A locked RMW loop slows down with
/// the host's load on this core much as the queues' own fast paths do.
inline double core_cas_per_us(std::uint64_t ns) {
  alignas(msq::port::kCacheLine) std::atomic<std::uint64_t> cell{0};
  const std::uint64_t t0 = now_ns();
  std::uint64_t n = 0, t = t0;
  while (t - t0 < ns) {
    for (int k = 0; k < 256; ++k) {
      std::uint64_t seen = cell.load(std::memory_order_relaxed);
      cell.compare_exchange_strong(seen, seen + 1, std::memory_order_acq_rel);
    }
    n += 256;
    t = now_ns();
  }
  return static_cast<double>(n) * 1e3 / static_cast<double>(t - t0);
}

inline bool pin_self(int cpu) {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

/// Seeded Poisson arrival times (ns after the slice start) for one
/// producer, covering [0, window).
inline std::vector<std::uint64_t> poisson_schedule(double rate_per_s, std::uint64_t window_ns,
                                                   std::uint64_t seed) {
  msq::port::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> at;
  at.reserve(static_cast<std::size_t>(rate_per_s * static_cast<double>(window_ns) * 1.1e-9) + 16);
  double t = 0;
  for (;;) {
    // 53 random bits -> u in (0, 1]
    const double u = static_cast<double>((rng() >> 11) + 1) * 0x1p-53;
    t += -std::log(u) / rate_per_s * 1e9;
    if (t >= static_cast<double>(window_ns)) return at;
    at.push_back(static_cast<std::uint64_t>(t));
  }
}

namespace detail {

/// Per-producer enqueue times of the items whose seq is a multiple of
/// kCheckEvery (closed loops), read back by whichever thread dequeues them.
/// The ring only has to outlive an item's time in the queue.
class StampRing {
 public:
  static constexpr std::size_t kSize = 4096;
  void put(std::uint64_t seq, std::uint64_t t) {
    slot_[(seq / kCheckEvery) % kSize].store(t, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get(std::uint64_t seq) const {
    return slot_[(seq / kCheckEvery) % kSize].load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> slot_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(kSize);
};

struct Shared {
  explicit Shared(const SliceSpec& s) : spec(s) {}

  const SliceSpec& spec;
  std::uint64_t t0 = 0;
  std::vector<StampRing> stamps;                   // kPairs
  std::vector<std::vector<std::uint64_t>> arrive;  // kHandoff
  std::atomic<std::uint32_t> producers_done{0};
};

inline void sojourn(Worker& w, const Shared& sh, std::uint64_t item, std::uint64_t now) {
  const std::uint32_t p = item_producer(item);
  const std::uint64_t s = item_seq(item);
  std::uint64_t from = 0;
  if (sh.spec.kind == Kind::kPairs) {
    if (p >= sh.stamps.size() || s == 0 || s % kCheckEvery != 0) return;
    from = sh.stamps[p].get(s);
  } else {
    if (p >= sh.arrive.size() || s == 0 || s > sh.arrive[p].size()) return;
    from = sh.t0 + sh.arrive[p][s - 1];
  }
  w.sojourn_ns.offer(now > from ? now - from : 0);
}

/// The paper's closed loop: enqueue, then dequeue until one comes back.
template <typename Q>
void pairs_thread(Q& q, Worker& w, std::uint32_t p, Shared& sh, std::uint64_t parent) {
  const SliceSpec& spec = sh.spec;
  const std::uint64_t deadline = sh.t0 + spec.window_ns;
  std::uint64_t last_check = sh.t0;
  std::uint64_t seq = 0;
  for (;;) {
    const std::uint64_t s = seq + 1;
    if (s % kCheckEvery == 0) {
      const std::uint64_t now = now_ns();
      w.observe_lag(now - last_check);
      last_check = now;
      if (now >= deadline) break;
      sh.stamps[p].put(s, now);
    }
    seq = s;
    const std::uint64_t item = make_item(p, s);
    const bool sample = spec.traced && s % kSampleEvery == 0;
    bool ok;
    if (sample) {
      const std::uint64_t start = now_ns();
      ok = q.try_enqueue(item);
      w.timed(w.enq_ns, "enq", item, start, parent);
    } else {
      ok = q.try_enqueue(item);
    }
    if (!ok) {
      ++w.enq_refused;
      w.log.shed.push_back(s);
      continue;
    }
    ++w.enq_ok;
    std::uint64_t got = 0;
    for (std::uint64_t empties = 0;;) {
      bool hit;
      if (sample) {
        const std::uint64_t start = now_ns();
        hit = q.try_dequeue(got);
        w.timed(w.deq_ns, "deq", hit ? got : 0, start, parent);
      } else {
        hit = q.try_dequeue(got);
      }
      if (hit) break;
      ++w.deq_empty;
      // A FIFO queue is never empty here (this thread's own item is in
      // it); give up only at the deadline, and let the gate count the loss.
      if (++empties % 1024 == 0 && now_ns() >= deadline) {
        w.log.issued = seq;
        w.end_ns = now_ns();
        return;
      }
    }
    ++w.deq_ok;
    w.ledger.record(got, spec.fifo);
    if (item_seq(got) % kCheckEvery == 0) sojourn(w, sh, got, now_ns());
  }
  w.log.issued = seq;
  w.end_ns = now_ns();
}

/// Open-loop producer: spin to each scheduled arrival, then enqueue.
template <typename Q>
void producer_thread(Q& q, Worker& w, std::uint32_t p, Shared& sh, std::uint64_t parent) {
  const SliceSpec& spec = sh.spec;
  const std::vector<std::uint64_t>& arrive = sh.arrive[p];
  for (std::uint64_t k = 0; k < arrive.size(); ++k) {
    const std::uint64_t due = sh.t0 + arrive[k];
    std::uint64_t now = now_ns();
    while (now < due) {
      msq::port::cpu_relax();
      now = now_ns();
    }
    w.observe_lag(now - due);
    const std::uint64_t s = k + 1;
    const std::uint64_t item = make_item(p, s);
    bool ok;
    if (spec.traced && s % kSampleEvery == 0) {
      const std::uint64_t start = now_ns();
      ok = q.try_enqueue(item);
      w.timed(w.enq_ns, "enq", item, start, parent);
    } else {
      ok = q.try_enqueue(item);
    }
    while (!ok) {
      ++w.enq_refused;
      if (now_ns() - now > kShedAfterNs) break;
      msq::port::cpu_relax();
      ok = q.try_enqueue(item);
    }
    if (ok) {
      ++w.enq_ok;
    } else {
      w.log.shed.push_back(s);
    }
  }
  w.log.issued = arrive.size();
  w.end_ns = now_ns();
  sh.producers_done.fetch_add(1, std::memory_order_release);
}

/// Open-loop consumer: busy-polls until every producer is done and the
/// queue is empty.
template <typename Q>
void consumer_thread(Q& q, Worker& w, Shared& sh, std::uint64_t parent) {
  const SliceSpec& spec = sh.spec;
  const auto producers = static_cast<std::uint32_t>(sh.arrive.size());
  for (std::uint64_t calls = 1;; ++calls) {
    const bool done = sh.producers_done.load(std::memory_order_acquire) == producers;
    // Traced, every call is timed, so that each sampled item's dequeue gets
    // a span carrying the item, like its enqueue span does.
    const std::uint64_t start = spec.traced ? now_ns() : 0;
    const bool sampled = spec.traced && calls % kSampleEvery == 0;
    std::uint64_t got = 0;
    if (!q.try_dequeue(got)) {
      if (sampled) w.sample(w.deq_ns, start, now_ns());
      // Once every enqueue has returned, an empty answer is exact.
      if (done) break;
      ++w.deq_empty;
      continue;
    }
    const std::uint64_t now = now_ns();
    if (sampled) w.sample(w.deq_ns, start, now);
    if (spec.traced && item_seq(got) % kSampleEvery == 0) {
      w.span("deq", got, start, now, parent);
    }
    ++w.deq_ok;
    w.ledger.record(got, spec.fifo);
    sojourn(w, sh, got, now);
  }
  w.end_ns = now_ns();
}

}  // namespace detail

/// Run one slice of `spec` against a fresh Q.  Set-up time covers schedule
/// generation, queue construction and thread start; it leaves out building
/// the slice's ledgers and sample buffers, which are the benchmark's own.
template <typename Q>
SliceResult run_slice(const SliceSpec& spec) {
  SliceResult r;
  detail::Shared sh(spec);
  const bool pairs = spec.kind == Kind::kPairs;
  const std::uint32_t producers = pairs ? spec.threads : spec.producers;
  const std::uint64_t schedule_begin = now_ns();
  if (pairs) {
    sh.stamps = std::vector<detail::StampRing>(producers);
  } else {
    msq::port::Xoshiro256 seeds(spec.seed);
    for (std::uint32_t p = 0; p < producers; ++p) {
      sh.arrive.push_back(poisson_schedule(spec.rate_per_s / producers, spec.window_ns, seeds()));
    }
  }
  r.setup_ns = now_ns() - schedule_begin;

  // Bitmaps sized for what a slice can offer: the longest schedule, or a
  // closed loop at one pair per 10 ns.  Whatever is left in the queue at
  // the end is drained and judged like any consumer's take.
  std::uint64_t expect = pairs ? spec.window_ns / 10 : 0;
  for (const auto& a : sh.arrive) expect = std::max<std::uint64_t>(expect, a.size());
  r.workers.reserve(spec.threads);
  for (std::uint32_t i = 0; i < spec.threads; ++i) {
    r.workers.emplace_back(producers, expect, pairs || i >= producers, spec.traced, spec.family);
  }
  Ledger drain(producers, expect);
  r.bookkeeping_bytes = drain.bytes();
  for (const Worker& w : r.workers) r.bookkeeping_bytes += w.bytes();

  const std::uint64_t setup_begin = now_ns();
  if (spec.traced) {
    msq::obs::pool_gauge_reset();
    msq::obs::arm();
  }
  auto q = std::make_unique<Q>(spec.capacity);
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  msq::obs::Snapshot before;
  {
    std::vector<std::jthread> threads;
    threads.reserve(spec.threads);
    for (std::uint32_t i = 0; i < spec.threads; ++i) {
      threads.emplace_back([&, i] {
        Worker& w = r.workers[i];
        w.pinned = !spec.cpus.empty() && pin_self(spec.cpus[i % spec.cpus.size()]);
        const std::uint64_t family_span = spec.span_base + i;
        w.next_span = (family_span << 20) + 1;
        if (spec.traced) w.clock_ns = clock_cost_ns();
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) msq::port::cpu_relax();
        if (pairs) {
          detail::pairs_thread(*q, w, i, sh, family_span);
        } else if (i < producers) {
          detail::producer_thread(*q, w, i, sh, family_span);
        } else {
          detail::consumer_thread(*q, w, sh, family_span);
        }
        if (spec.core_probe_ns != 0) w.core_cas_per_us = core_cas_per_us(spec.core_probe_ns);
      });
    }
    while (ready.load(std::memory_order_acquire) < spec.threads) std::this_thread::yield();
    r.setup_ns += now_ns() - setup_begin;
    before = msq::obs::snapshot();
    sh.t0 = now_ns();
    r.t0 = sh.t0;
    go.store(true, std::memory_order_release);
  }  // joins

  std::uint64_t v = 0;
  while (q->try_dequeue(v)) {
    drain.record(v, spec.fifo);
    ++r.drained;
  }
  r.counters = msq::obs::snapshot() - before;
  if (spec.traced) {
    r.pool_hwm = msq::obs::pool_gauge_hwm();
    msq::obs::disarm();
    for (std::uint32_t i = 0; i < spec.threads; ++i) {
      r.family_spans.push_back(
          Span{spec.span_base + i, kWorkloadSpan, 0, spec.family, nullptr, r.t0, r.workers[i].end_ns});
    }
  }
  std::vector<ProducerLog> logs;
  std::vector<const Ledger*> ledgers;
  for (std::uint32_t i = 0; i < spec.threads; ++i) {
    if (i < producers) logs.push_back(r.workers[i].log);
    if (pairs || i >= producers) ledgers.push_back(&r.workers[i].ledger);
  }
  ledgers.push_back(&drain);
  r.verdict = judge(logs, ledgers);
  return r;
}

}  // namespace perfbench
