// One threaded site: a deterministic GGD state machine over its own
// processes.
//
// A SiteNode hosts the GgdProcess objects the placement assigns to its
// site and reuses the protocol brains unchanged — GgdProcess receive /
// decide / cascade, LazyLogKeeping's §3.4 rules, the wire codec. What it
// deliberately does NOT have is the GgdEngine's global state: no shared
// routing tables (the immutable Placement answers site-of and root-of),
// no global transfer dedup (transfer ids are site-prefixed), no simulator
// (time is a per-site logical clock that ticks once per consumed input).
//
// Determinism contract: a SiteNode is a pure function of its input
// sequence (mutator ops, decoded packets, sweep commands, in order).
// Everything it emits goes through the `sender` callback in a fixed
// emission order, so the replay — which feeds the recorded input sequence
// back in — regenerates byte-identical outbound traffic. That contract is
// what the threaded conformance tier checks on every seed.
//
// Differences from the engine's hosting semantics, all deliberate:
//   * flushes are immediate (no sim-timer backoff): a worker thread has no
//     event queue to coalesce on, and receive() produces no output for a
//     non-improving message, so the cascade still terminates — the trade
//     is message count, not correctness (see README "Threaded runtime");
//   * op preconditions are site-local: a site can check its own processes
//     (registered, not removed, delivered-refs view) but cannot evaluate
//     global reachability the way Scenario::apply does, so registrations
//     always apply and a garbage-but-uncollected actor's op is applied
//     rather than skipped — the replay's oracle sees the same ops, so the
//     conformance verdicts stay self-consistent;
//   * the destruction-retransmission obligation is never cleared by the
//     (remote) delivery: the dropper's site re-emits each sweep until a
//     local regrant or the local target's removal clears it. Duplicates
//     are idempotent at the receiver; sweeps are bounded by the harness.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/assert.hpp"
#include "common/dense_map.hpp"
#include "common/flat_map.hpp"
#include "common/interner.hpp"
#include "common/types.hpp"
#include "ggd/sweep.hpp"
#include "logkeeping/lazy_logkeeping.hpp"
#include "metrics/message_stats.hpp"
#include "runtime_mt/placement.hpp"
#include "wire/messages.hpp"
#include "workload/ops.hpp"

namespace cgc::runtime_mt {

class SiteNode {
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
    on_ref_delivered_ = std::move(hook);
  }
  void set_on_removed(std::function<void(ProcessId)> hook) {
    on_removed_ = std::move(hook);
  }

  /// Applies one mutator op routed to this site (site_for(op.a) == site).
  /// Returns false when a site-local precondition fails and the op is
  /// skipped deterministically.
  bool apply(const MutatorOp& op);

  /// Decodes one framed packet addressed to this site and processes each
  /// message.
  void deliver_packet(const std::vector<std::uint8_t>& bytes);

  /// One periodic-sweep round over this site's processes: re-emit owed
  /// destructions, then re-run every live non-root garbage decision with
  /// inquiry gates reset. Compat shim: loops unbounded slices.
  void sweep();

  /// One budget-bounded sweep slice (the engine's scheduler, per site).
  /// Returns true when the slice completed the current round. Each slice
  /// is one consumed input — the worker re-enqueues a kSweep envelope for
  /// an unfinished round, so slice boundaries land in the recorded
  /// schedule and the replay re-executes the identical slicing.
  bool sweep_slice(std::uint64_t budget_units = sweep::kUnbounded);

  // -- Post-run reads (worker-thread-owned until joined) -------------------

  [[nodiscard]] const std::vector<ProcessId>& removed() const {
    return removed_;
  }
  [[nodiscard]] std::size_t pending_destruction_count() const {
    return pending_destructions_.size();
  }
  [[nodiscard]] std::uint64_t clock() const { return clock_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] std::size_t process_count() const { return procs_.size(); }

 private:
  [[nodiscard]] GgdProcess& process(ProcessId id) {
    const std::uint32_t idx = ids_.index_of(id);
    CGC_CHECK_MSG(idx != IdInterner<ProcessId>::kNone,
                  "message for a process this site does not host");
    return procs_[idx];
  }
  void register_process(ProcessId id, bool is_root);
  /// Site-local liveness: hosted here and not yet collected. The global
  /// "did it ever become reachable" half of Scenario's check is
  /// unavailable on purpose — see the header comment.
  [[nodiscard]] bool local_live(ProcessId p) const {
    const std::uint32_t idx = ids_.index_of(p);
    return idx != IdInterner<ProcessId>::kNone && !procs_[idx].removed();
  }
  /// Delivered-refs view of a hosted process: the references that actually
  /// arrived (minus drops) — the forwarder/dropper preconditions.
  [[nodiscard]] bool holds(ProcessId holder, ProcessId target) const;
  /// The root predicate handed to GgdProcess calls.
  [[nodiscard]] auto is_root() const {
    return [this](ProcessId p) { return placement_.is_root(p); };
  }

  void send_ref_transfer(ProcessId recipient, ProcessId subject);
  void deliver_ggd(GgdMessage msg);
  void dispatch_all(std::vector<GgdMessage> msgs);
  /// Immediate flush: the engine's coalescing timer without the timer.
  void flush(ProcessId p);
  void on_ref_transfer(const wire::RefTransfer& transfer);
  void on_ggd_message(const GgdMessage& msg);
  void note_removed(ProcessId p);
  /// Resets a hosted process's generation to hot (no-op for remote ids).
  void mark_touched(ProcessId id) {
    const std::uint32_t idx = ids_.index_of(id);
    if (idx != IdInterner<ProcessId>::kNone) {
      generations_.touch(idx);
    }
  }

  SiteId site_;
  const Placement& placement_;
  LazyLogKeeping logkeeping_;
  std::function<void(SiteId, const wire::WireMessage&)> sender_;
  std::function<void(ProcessId, ProcessId)> on_ref_delivered_;
  std::function<void(ProcessId)> on_removed_;
  MessageStats* stats_ = nullptr;

  /// Per-site bulk memory for hosted processes' logs and replica tables.
  /// Thread story: constructed on the launching thread, used only by this
  /// site's worker, read after join — confinement plus the thread
  /// start/join happens-before is what keeps TSan quiet (no cross-thread
  /// alloc/free ever touches it). Declared before `procs_` so processes
  /// release their rows before the pool dies.
  Pool pool_;
  IdInterner<ProcessId> ids_;
  std::deque<GgdProcess> procs_;
  /// Hosted ids in increasing order — the sweep's deterministic scan order.
  FlatSet<ProcessId> proc_order_;
  std::vector<ProcessId> removed_;
  /// Destruction messages this site's mutators owe a delivery, re-emitted
  /// by the sweep (keyed dropper, target — both the regrant that clears an
  /// entry and the re-emission happen at the dropper's site).
  FlatMap<std::pair<ProcessId, ProcessId>, GgdMessage> pending_destructions_;
  /// Delivered-refs view per hosted process (every update is a local
  /// event: a transfer delivered here, or a drop applied here).
  FlatMap<ProcessId, FlatSet<ProcessId>> held_;
  /// Site-prefixed so ids are globally unique without a shared counter.
  std::uint64_t transfer_counter_ = 0;
  DenseSet<std::uint64_t> applied_transfers_;
  /// Budget-bounded sweep state: where an exhausted slice resumes. Keys,
  /// not iterators — they survive the inserts/erases between slices.
  struct SweepCursor {
    enum class Phase : std::uint8_t { kIdle, kDestructions, kScan };
    Phase phase = Phase::kIdle;
    std::pair<ProcessId, ProcessId> destruction_key{};
    bool have_destruction_key = false;
    ProcessId scan_key{};
    bool have_scan_key = false;
  };
  SweepCursor sweep_cursor_;
  sweep::GenerationTable generations_;
  std::uint64_t sweep_round_ = 0;
  /// Logical time: one tick per consumed input. Monotone per site, which
  /// is all GgdProcess's confirm-time gating needs.
  std::uint64_t clock_ = 0;
};

}  // namespace cgc::runtime_mt
