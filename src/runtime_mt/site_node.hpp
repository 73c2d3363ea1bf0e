// One threaded site: the threaded host of the GGD site state machine.
//
// The per-site algorithm is SiteCore, the same core the simulator's
// GgdEngine drives. A SiteNode runs one core over the processes the
// placement assigns to its site. Its side of the host interface:
//
//   * every outbound message goes through the `sender` callback to the
//     placement's site of its target;
//   * flushes are immediate (no backoff timer): a worker thread has no
//     event queue to coalesce on, and receive() produces no output for a
//     non-improving message, so the cascade still terminates — the trade
//     is message count, not correctness (see README "Threaded runtime");
//   * time is a per-site logical clock that ticks once per consumed input;
//   * root and site queries answer from the immutable Placement: no shared
//     routing tables, no migration, no extra sweep phases.
//
// The node itself keeps site-local op preconditions (its own processes
// and delivered-refs view; it cannot evaluate global reachability the way
// Scenario::apply does, so a garbage-but-uncollected actor's op is
// applied rather than skipped — the replay's oracle sees the same ops)
// and site-prefixed transfer ids. Unlike the engine it does not re-mark
// a delivered transfer's subject or a new object's creator hot, and a
// remote delivery never clears a destruction's retransmission obligation:
// the dropper's site re-emits each sweep until a local regrant or the
// local target's removal clears it.
//
// Determinism contract: a SiteNode is a pure function of its input
// sequence (ops, packets, sweep slices, in order), and everything it
// emits goes through `sender` in a fixed order, so the replay regenerates
// byte-identical traffic. The threaded conformance tier checks this on
// every seed; tests/runtime_mt/site_node_golden_test.cpp pins the bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "ggd/site_core.hpp"
#include "ggd/sweep.hpp"
#include "logkeeping/lazy_logkeeping.hpp"
#include "metrics/message_stats.hpp"
#include "runtime_mt/placement.hpp"
#include "wire/messages.hpp"
#include "workload/ops.hpp"

namespace cgc::runtime_mt {

class SiteNode final : private SiteHost {
 public:
  /// `stats` may be null; when set it receives the delivery-side wire
  /// accounting (the send side is the packet assembler's job). Per-site
  /// stats objects, merged after the workers join, are what keeps the
  /// accounting data-race-free under TSan.
  SiteNode(SiteId site, const Placement& placement, LogKeepingMode mode,
           MessageStats* stats = nullptr);

  /// Every outbound wire message, in emission order. Must be set before
  /// the first input.
  void set_sender(std::function<void(SiteId, const wire::WireMessage&)> s) {
    sender_ = std::move(s);
  }

  /// Replay-side observers (both optional, both passive): edge delivery
  /// for the oracle, removal for the verdict diff. Attaching them must not
  /// change a single emitted byte.
  void set_on_ref_delivered(std::function<void(ProcessId, ProcessId)> hook) {
    core_.set_on_ref_delivered(std::move(hook));
  }
  void set_on_removed(std::function<void(ProcessId)> hook) {
    core_.set_on_removed(std::move(hook));
  }

  /// Applies one mutator op routed to this site (site_for(op.a) == site).
  /// Returns false when a site-local precondition fails and the op is
  /// skipped deterministically.
  bool apply(const MutatorOp& op);

  /// Decodes one framed packet addressed to this site and processes each
  /// message.
  void deliver_packet(const std::vector<std::uint8_t>& bytes);

  /// One budget-bounded sweep slice of this site's processes. Returns
  /// true when the slice completed the current round. Each slice is one
  /// consumed input — the worker re-enqueues a kSweep envelope for an
  /// unfinished round, so slice boundaries land in the recorded schedule
  /// and the replay re-executes the identical slicing.
  bool sweep_slice(std::uint64_t budget_units = sweep::kUnbounded);

  // -- Post-run reads (worker-thread-owned until joined) -------------------

  [[nodiscard]] const std::vector<ProcessId>& removed() const {
    return core_.removed();
  }
  [[nodiscard]] std::size_t pending_destruction_count() const {
    return core_.pending_destruction_count();
  }
  [[nodiscard]] std::uint64_t clock() const { return clock_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] std::size_t process_count() const {
    return core_.processes().size();
  }

 private:
  // -- SiteHost: the threaded side of the core -----------------------------
  void route(ProcessId from, ProcessId to,
             const wire::WireMessage& msg) override {
    (void)from;
    sender_(placement_.site_for(to), msg);
  }
  void schedule_flush(ProcessId p) override { core_.flush(p); }
  [[nodiscard]] SimTime now() const override { return clock_; }
  [[nodiscard]] SiteId site_of(ProcessId p) const override {
    return placement_.site_for(p);
  }

  /// Delivered-refs view of a hosted process: the references that actually
  /// arrived (minus drops) — the forwarder/dropper preconditions.
  [[nodiscard]] bool holds(ProcessId holder, ProcessId target) const;
  [[nodiscard]] std::uint64_t next_transfer_id() {
    return (site_.value() << 40) | ++transfer_counter_;
  }

  /// The walk's root predicate, answered by the placement.
  struct PlacementRoots {
    const Placement* placement;
    bool operator()(ProcessId p) const { return placement->is_root(p); }
  };

  SiteId site_;
  const Placement& placement_;
  std::function<void(SiteId, const wire::WireMessage&)> sender_;
  MessageStats* stats_ = nullptr;
  PlacementRoots roots_;
  /// Thread story: constructed on the launching thread, used only by this
  /// site's worker, read after join — confinement plus the thread
  /// start/join happens-before is what keeps TSan quiet (no cross-thread
  /// alloc/free ever touches the core's pool).
  SiteCore core_;
  /// Delivered-refs view per hosted process (every update is a local
  /// event: a transfer delivered here, or a drop applied here).
  FlatMap<ProcessId, FlatSet<ProcessId>> held_;
  std::uint64_t transfer_counter_ = 0;
  /// Logical time: one tick per consumed input. Monotone per site, which
  /// is all GgdProcess's confirm-time gating needs.
  std::uint64_t clock_ = 0;
};

}  // namespace cgc::runtime_mt
