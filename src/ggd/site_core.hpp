// SiteCore: the per-site GGD state machine, shared by both hosts.
//
// The paper's detector is a per-site algorithm: a site applies the §3.4
// log-keeping rules to mutator events, answers and relays control
// messages, and runs the periodic re-verification sweep. SiteCore is that
// algorithm, once: the hosted process table, owed destructions, applied
// transfers, removals, the sweep's round and resume cursors, and the
// detector's metrics and journal records. GgdEngine (the simulator) and
// runtime_mt::SiteNode (one threaded site) drive it; each real difference
// between them is one SiteHost hook, and the core never asks which host
// it runs under. Hooks are virtual calls, never std::function; the root
// predicate is a FunctionRef; outbound control messages move into their
// wire envelope without a copy.
#pragma once

#include <array>
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
#include "ggd/process.hpp"
#include "ggd/sweep.hpp"
#include "logkeeping/lazy_logkeeping.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "wire/messages.hpp"

namespace cgc {

/// What a host supplies to its SiteCore: exactly the points where the
/// simulator and the threaded runtime differ.
class SiteHost {
 public:
  /// Puts one outbound message (a GGD control message or a reference
  /// transfer) from hosted process `from` on the wire towards `to`.
  virtual void route(ProcessId from, ProcessId to,
                     const wire::WireMessage& msg) = 0;
  /// Flush policy after `p` received a message or was scanned: ship its
  /// pending forwards now (SiteCore::flush) or coalesce them for later.
  virtual void schedule_flush(ProcessId p) = 0;
  /// The host's clock: simulated time, or a per-site logical clock.
  [[nodiscard]] virtual SimTime now() const = 0;
  /// Site of record of `p`, for journal records.
  [[nodiscard]] virtual SiteId site_of(ProcessId p) const = 0;
  /// True while `p` is frozen (in migration): the sweep must not decide it.
  [[nodiscard]] virtual bool frozen(ProcessId p) const {
    (void)p;
    return false;
  }
  /// Host-owned sweep phases, run between destruction re-emission and the
  /// scan on the same budget. Returns false when the budget ran out; the
  /// next slice calls again and the host resumes from its own cursor.
  virtual bool sweep_host_phases(sweep::Budget& budget) {
    (void)budget;
    return true;
  }

 protected:
  ~SiteHost() = default;
};

class SiteCore {
 public:
  /// `is_root` must reference a callable that outlives the core.
  SiteCore(SiteHost& host, RootPredicate is_root, LogKeepingMode mode)
      : host_(host), is_root_(is_root), logkeeping_(mode) {}
  SiteCore(const SiteCore&) = delete;
  SiteCore& operator=(const SiteCore&) = delete;

  // -- Hosted process table ----------------------------------------------

  /// Registers `id` (it must be new) under the next dense index.
  GgdProcess& add(ProcessId id, bool is_root);
  [[nodiscard]] bool hosts(ProcessId id) const { return ids_.knows(id); }
  /// Dense index of a hosted process; checks registration.
  [[nodiscard]] std::uint32_t index_of(ProcessId id) const {
    const std::uint32_t idx = ids_.index_of(id);
    CGC_CHECK_MSG(idx != IdInterner<ProcessId>::kNone, "unknown process id");
    return idx;
  }
  [[nodiscard]] GgdProcess& process(ProcessId id) {
    return procs_[index_of(id)];
  }
  [[nodiscard]] const GgdProcess& process(ProcessId id) const {
    return procs_[index_of(id)];
  }
  /// Hosted and not yet collected.
  [[nodiscard]] bool live(ProcessId id) const {
    const std::uint32_t idx = ids_.index_of(id);
    return idx != IdInterner<ProcessId>::kNone && !procs_[idx].removed();
  }
  /// Hosted ids in increasing order: the sweep's scan order.
  [[nodiscard]] const FlatSet<ProcessId>& process_ids() const {
    return proc_order_;
  }
  [[nodiscard]] const std::deque<GgdProcess>& processes() const {
    return procs_;
  }
  [[nodiscard]] const Pool& pool() const { return pool_; }
  [[nodiscard]] const LazyLogKeeping& logkeeping() const {
    return logkeeping_;
  }

  /// Re-marks `id` hot for the generational sweep scheduler: any mutator
  /// operation or delivered message means its next decision may change,
  /// so the next round must scan it regardless of generation. No-op for a
  /// process hosted elsewhere.
  void mark_touched(ProcessId id) {
    const std::uint32_t idx = ids_.index_of(id);
    if (idx != IdInterner<ProcessId>::kNone) {
      generations_.touch(idx);
    }
  }

  // -- Mutator transitions (§3.4 log keeping at the acting site) ---------

  /// `i` hands its own reference to `j`: rule 1, then the transfer.
  void link_own(ProcessId i, ProcessId j, std::uint64_t transfer_id);
  /// `i` forwards its reference to third party `k` to `j`: rule 2 (no
  /// control message to `k`), then the transfer.
  void link_third(ProcessId i, ProcessId k, ProcessId j,
                  std::uint64_t transfer_id);
  /// Edge j → k destroyed: emits the destruction and owes its delivery
  /// until a regrant or the target's removal clears the obligation.
  void drop(ProcessId j, ProcessId k);

  // -- Deliveries ----------------------------------------------------------

  /// Applies a delivered reference transfer exactly once. Returns false
  /// for a duplicate.
  bool apply_transfer(const wire::RefTransfer& transfer);
  /// Rule 3: hosted `j` now holds a reference to `k`.
  void acquire(ProcessId j, ProcessId k);
  /// Handles one control message addressed to a hosted process: answers
  /// inquiries (posthumously for a collected target), runs receive()
  /// otherwise, and relays whatever the target emits.
  void deliver(const GgdMessage& msg);
  /// Sends one control message from a hosted process.
  void emit(GgdMessage msg);
  /// Ships `p`'s pending forwards, if any.
  void flush(ProcessId p);

  // -- Periodic sweep --------------------------------------------------------

  /// Performs at most `budget` units of sweep work and remembers where it
  /// stopped; true when this slice completed the round. Phases: owed
  /// destruction re-emission, the host's phases, then the generational
  /// scan. An unbounded budget runs one whole round in the historical
  /// order (the wire goldens pin it).
  bool sweep_slice(std::uint64_t budget_units);
  /// True between rounds: the next slice starts a fresh one.
  [[nodiscard]] bool sweep_idle() const {
    return cursor_.phase == SweepCursor::Phase::kIdle;
  }
  [[nodiscard]] std::uint64_t sweep_round() const { return sweep_round_; }
  [[nodiscard]] sweep::Backlog sweep_backlog(ProcessId p) const;

  // -- Removals and hooks ----------------------------------------------------

  /// Every process collected here, in removal order.
  [[nodiscard]] const std::vector<ProcessId>& removed() const {
    return removed_;
  }
  [[nodiscard]] std::size_t pending_destruction_count() const {
    return pending_destructions_.size();
  }
  void set_on_removed(std::function<void(ProcessId)> hook) {
    on_removed_ = std::move(hook);
  }
  void set_on_ref_delivered(std::function<void(ProcessId, ProcessId)> hook) {
    on_ref_delivered_ = std::move(hook);
  }

  // -- Observability ---------------------------------------------------------

  /// Attaches a metrics registry and/or journal (either may be null).
  /// Strictly passive: not a wire byte may change.
  void attach_obs(obs::Registry* registry, obs::Journal* journal);
  [[nodiscard]] obs::Journal* journal() const { return journal_; }

 private:
  /// The hosted process `id`, re-marked hot (one index lookup).
  GgdProcess& touch(ProcessId id) {
    const std::uint32_t idx = index_of(id);
    generations_.touch(idx);
    return procs_[idx];
  }
  void dispatch_all(std::vector<GgdMessage> msgs);
  void note_removed(GgdProcess& p);
  /// Records that `p` was removed by the condemned set `from`'s
  /// destruction delivered: counted, and journaled with the walker whose
  /// verdict the set carries.
  void note_condemned(ProcessId p, ProcessId from);
  /// Records the decision walk `p` just ran (metrics and verdict record)
  /// and the closures it ran since it was last observed.
  void observe_walk(GgdProcess& p, SimTime now);
  /// Adds the closures `p` ran since it was last observed to
  /// ggd.v_closures. An announce's closure is counted at the process's
  /// next delivery or scan.
  void observe_closures(GgdProcess& p);

  SiteHost& host_;
  RootPredicate is_root_;
  LazyLogKeeping logkeeping_;
  /// Declared before `procs_`, so the processes release their rows before
  /// the pool dies. The deque keeps process addresses stable.
  Pool pool_;
  IdInterner<ProcessId> ids_;
  std::deque<GgdProcess> procs_;
  FlatSet<ProcessId> proc_order_;
  sweep::GenerationTable generations_;
  std::vector<ProcessId> removed_;
  /// Edge-destruction messages not yet known to have arrived, keyed
  /// (dropper, target) and re-emitted by the sweep: the local collector's
  /// re-summarisation in the paper's recovery story, so loss costs
  /// latency, not comprehensiveness. Destructions are idempotent. Sorted:
  /// re-emission order is wire-observable.
  FlatMap<std::pair<ProcessId, ProcessId>, GgdMessage> pending_destructions_;
  /// A duplicated reference-passing message must not hand the recipient a
  /// reference its mutator already dropped.
  DenseSet<std::uint64_t> applied_transfers_;
  std::function<void(ProcessId)> on_removed_;
  std::function<void(ProcessId, ProcessId)> on_ref_delivered_;

  /// Resumable position of the round in progress. Cursors are the
  /// last-visited keys (resumed via upper_bound), so the tables may change
  /// between slices without invalidating the round.
  struct SweepCursor {
    enum class Phase : std::uint8_t { kIdle, kDestructions, kHost, kScan };
    Phase phase = Phase::kIdle;
    std::pair<ProcessId, ProcessId> destruction_key{};
    bool have_destruction_key = false;
    ProcessId scan_key{};
    bool have_scan_key = false;
    std::uint64_t scanned = 0;        // processes decided this round
    std::uint64_t slices = 0;         // slices this round has taken
    std::uint64_t round_wall_us = 0;  // summed slice walls (obs only)
  };
  SweepCursor cursor_;
  std::uint64_t sweep_round_ = 0;
  /// Budget of the most recent slice: what backlog estimates assume.
  std::uint64_t last_sweep_budget_ = sweep::kUnbounded;

  /// Registry instruments, looked up once in attach_obs so the hot paths
  /// never do a by-name lookup. All null when not attached.
  struct DetectorMetrics {
    obs::TickHistogram* sweep_pause_us = nullptr;
    obs::TickHistogram* sweep_scanned = nullptr;
    obs::TickHistogram* sweep_slices = nullptr;
    obs::TickHistogram* walk_consulted = nullptr;
    obs::TickHistogram* relay_rows = nullptr;
    /// GGD control messages delivered to a hosted process, and the
    /// ComputeV closures they and the process's own sends actually ran
    /// (a reused V is not a closure).
    obs::Counter* deliveries = nullptr;
    obs::Counter* v_closures = nullptr;
    obs::Counter* walks = nullptr;
    obs::Counter* walks_blocked = nullptr;
    obs::Counter* walks_unreachable = nullptr;
    obs::Counter* destructions_reemitted = nullptr;
    obs::Counter* removals_condemned = nullptr;
    obs::Counter* inquiries = nullptr;
    /// ggd.inquiries split by GgdProcess::InquiryReason; the four sum to
    /// `inquiries` because decide() is the only inquiry source.
    std::array<obs::Counter*, GgdProcess::kInquiryReasons>
        inquiries_by_reason{};
  };
  DetectorMetrics metrics_;
  obs::Journal* journal_ = nullptr;
  bool obs_attached_ = false;
};

}  // namespace cgc
