// Deterministic discrete-event simulator.
//
// Everything in the reproduction — mutator work, network deliveries, local
// GC cycles, GGD rounds — runs as events on one virtual clock. Determinism
// comes from (time, sequence) ordering: ties on the clock break by insertion
// order, and all randomness is drawn from seeded `Rng` streams.
//
// The event loop is allocation-free on the hot path: events live in a
// 4-ary implicit heap (one contiguous array, shallower than a binary heap
// and sift-down children share a cache line), and each event's action is
// an `InlineFunction` whose capture state — every closure the system
// schedules fits in 48 bytes — is stored inside the event slot itself.
// Popping moves the root event out legitimately (we own the heap), which
// retires the old `const_cast` move from `priority_queue::top()`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/assert.hpp"
#include "common/inline_function.hpp"

namespace cgc {

using SimTime = std::uint64_t;

class Simulator {
 public:
  /// Captures up to 48 bytes inline — the largest closure the system
  /// schedules (network delivery: vtable pointer-free `this` + a 24-byte
  /// byte vector) fits with room to spare; bigger ones degrade to one
  /// heap cell, not a correctness problem.
  using Action = InlineFunction<48>;

  /// With a pool, the event heap's backing array comes out of the arena
  /// (and its geometric regrowth recycles through the pool's size-class
  /// free lists instead of churning the global heap). The pool must
  /// outlive the simulator. Null keeps the global-heap default.
  Simulator() = default;
  explicit Simulator(Pool* pool) : heap_(EventAlloc(pool)) {}

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` ticks from now.
  void schedule_in(SimTime delay, Action action) {
    push(Event{now_ + delay, next_seq_++, std::move(action)});
  }

  /// Schedules `action` at an absolute virtual time (must not be in the
  /// past).
  void schedule_at(SimTime when, Action action) {
    CGC_CHECK(when >= now_);
    push(Event{when, next_seq_++, std::move(action)});
  }

  /// Runs one event; returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) {
      return false;
    }
    // Move the root out before re-heapifying so the action can schedule
    // further events reentrantly (the heap stays valid throughout).
    Event ev = std::move(heap_.front());
    if (heap_.size() > 1) {
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    CGC_CHECK(ev.when >= now_);
    now_ = ev.when;
    ++executed_;
    ev.action();
    return true;
  }

  /// Runs until the queue drains or `max_events` have executed. Returns
  /// true iff the queue drained (the system is quiescent).
  bool run(std::uint64_t max_events = UINT64_MAX) {
    for (std::uint64_t i = 0; i < max_events; ++i) {
      if (!step()) {
        return true;
      }
    }
    return heap_.empty();
  }

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    SimTime when = 0;
    std::uint64_t seq = 0;
    Action action;

    /// Earliest (time, seq) runs first; seq breaks clock ties by
    /// insertion order — the determinism contract.
    [[nodiscard]] bool before(const Event& other) const {
      if (when != other.when) {
        return when < other.when;
      }
      return seq < other.seq;
    }
  };

  static constexpr std::size_t kArity = 4;

  // Hole-style sifting: the displaced event rides in a local while
  // parents/children shift into the hole, so each level costs one Event
  // relocation (one InlineFunction move) instead of the three a
  // std::swap would.

  void push(Event ev) {
    heap_.push_back(std::move(ev));
    std::size_t i = heap_.size() - 1;
    if (i == 0 || !heap_[i].before(heap_[(i - 1) / kArity])) {
      return;
    }
    Event hole = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!hole.before(heap_[parent])) {
        break;
      }
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(hole);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Event hole = std::move(heap_[i]);
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) {
        break;
      }
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (heap_[c].before(heap_[best])) {
          best = c;
        }
      }
      if (!heap_[best].before(hole)) {
        break;
      }
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(hole);
  }

  using EventAlloc = PoolAllocator<Event>;

  std::vector<Event, EventAlloc> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace cgc
