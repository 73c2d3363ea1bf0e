// GgdEngine: hosts GGD processes on sites and drives the paper's
// computation over the simulated network.
//
// This layer works directly at global-root-graph granularity (one process
// per global root, §3.1): the object runtime maps object-level mutator
// activity down to these operations, and the complexity benches and the
// worked-example test use it directly.
//
// Mutator-level operations simulate both the real reference-carrying
// message (a serialized wire::RefTransfer, subject to network faults) and
// the lazy log-keeping updates at each endpoint. GGD control messages
// produced by `GgdProcess::receive` travel as serialized wire::GgdControl
// bodies through the same faulty network; the engine is the mailbox of
// every site it hosts processes on (composite systems register their own
// demultiplexing mailbox first and forward GGD bodies here).
//
// Process state is interned: every registered ProcessId gets a dense
// uint32 index on registration, process objects live in a deque indexed
// by it (stable addresses), and the site/root lookups the reachability
// walk hammers are one hash probe plus an array read. Anything iterated
// in a wire-observable order (sweeps, pending destructions) walks a
// sorted flat index, preserving the exact emission order of the previous
// `std::map` tables.
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
#include "net/network.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "wire/mailbox.hpp"

namespace cgc {

class GgdEngine : public wire::Mailbox {
 public:
  GgdEngine(Network& net, LogKeepingMode mode = LogKeepingMode::kRobust)
      : net_(net), logkeeping_(mode) {}

  /// Registers a global root `id` living on `site`. Roots (`is_root`) are
  /// entry points of the mutator and are never collected.
  GgdProcess& add_process(ProcessId id, SiteId site, bool is_root);

  [[nodiscard]] bool has_process(ProcessId id) const {
    return ids_.knows(id);
  }
  [[nodiscard]] GgdProcess& process(ProcessId id);
  [[nodiscard]] const GgdProcess& process(ProcessId id) const;
  [[nodiscard]] SiteId site_of(ProcessId id) const;

  /// All registered process ids in increasing order (deterministic sweep
  /// order), and the count.
  [[nodiscard]] const FlatSet<ProcessId>& process_ids() const {
    return proc_order_;
  }
  [[nodiscard]] std::size_t process_count() const { return procs_.size(); }

  /// Sets the row-relay policy for every registered process (and every
  /// process added later). kDelta is the default; kWholeMap reproduces
  /// the pre-delta wire behaviour for differential conformance.
  void set_relay_policy(RelayPolicy policy) {
    relay_policy_ = policy;
    for (GgdProcess& p : procs_) {
      p.set_relay_policy(policy);
    }
  }
  [[nodiscard]] RelayPolicy relay_policy() const { return relay_policy_; }

  // -- Mutator-level operations (each also performs lazy log-keeping) ----

  /// `creator` allocates a new global root `newborn` on `site`
  /// (edge creator → newborn). The newborn's half of the exchange runs
  /// immediately; the reference travels back to `creator` by message.
  void create_object(ProcessId creator, ProcessId newborn, SiteId site,
                     bool is_root = false);

  /// `i` sends its own reference to `j` (edge j → i).
  void send_own_ref(ProcessId i, ProcessId j);

  /// `i` forwards a reference denoting third party `k` to `j`
  /// (edge j → k). No control message to `k` is sent (lazy, §3.4).
  void send_third_party_ref(ProcessId i, ProcessId k, ProcessId j);

  /// The edge j → k is destroyed (the mutator or local collector dropped
  /// the last local reference): the edge-destruction control message is
  /// emitted towards `k`, which is what triggers GGD (§3.6).
  void drop_ref(ProcessId j, ProcessId k);

  /// Edge registration from the local collector's summarisation: global
  /// root j now reaches object k. For a co-located k both sides update
  /// synchronously (zero messages, the paper's co-located rule 1); for a
  /// remote k one asynchronous, idempotent edge-announce message carries
  /// j's account to k (the object runtime layer's substitute for the
  /// sender-side attribution it cannot compute — DESIGN.md §3).
  void local_acquire(ProcessId j, ProcessId k);

  /// One round of the periodic GGD sweep a deployed system runs alongside
  /// local garbage collection: every live non-root process re-evaluates
  /// its garbage decision with inquiry rate limits reset, so stale
  /// verdicts left behind by quiesced cascades are re-verified. Message
  /// cost stays proportional to unresolved structures. Unacknowledged
  /// migration snapshots and undelivered destructions are re-emitted
  /// (loss costs latency, not comprehensiveness).
  ///
  /// Compatibility shim over the incremental scheduler: loops
  /// `sweep_slice` with an unbounded budget, which executes exactly one
  /// whole round in the historical order (wire-golden byte identity).
  void periodic_sweep();

  /// Performs at most `budget` units of sweep work (one unit per table
  /// entry visited: pending-destruction re-emissions, stub TTL checks,
  /// hand-off re-sends, per-process row scans) and remembers where it
  /// stopped. Returns true when this slice completed the round — the
  /// next call starts a fresh one. Under a finite budget, generation
  /// tags skip cold rows (recently-touched rows are scanned every round,
  /// cold ones every 2^gen-th, capped at 8); an unbounded budget scans
  /// everything in one slice, byte-identical to the monolithic sweep.
  bool sweep_slice(std::uint64_t budget = sweep::kUnbounded);

  /// Number of the sweep round in progress (or, between rounds, the last
  /// completed one). Rounds are numbered from 1.
  [[nodiscard]] std::uint64_t sweep_round() const { return sweep_round_; }

  /// Where `p` stands in the sweep queue under the budget this engine
  /// last swept with — generation, rounds until its generation comes up,
  /// and an estimate of slices until the scan reaches it. `cgc-explain`
  /// turns this into the `awaiting_sweep` backlog report.
  [[nodiscard]] sweep::Backlog sweep_backlog(ProcessId p) const;

  // -- Migration (cross-site hand-off) ------------------------------------

  /// Starts a cross-site hand-off of `p` to `dst`: exports the process's
  /// fact state into a MigrateState wire message, installs a forwarding
  /// stub at the old site, and freezes the process until the snapshot is
  /// delivered (messages reaching the destination first are held; the
  /// site-of-record flips at delivery — the protocol-level atomicity).
  /// Returns false (and does nothing) when `p` is already collected,
  /// already in transit, or `dst` is its current site.
  bool migrate(ProcessId p, SiteId dst);

  /// True while `p`'s hand-off snapshot is in flight (the process is
  /// frozen: mutator entry points must not touch its state).
  [[nodiscard]] bool migrating(ProcessId p) const {
    return in_transit_.contains(p);
  }

  /// Hand-off snapshots sent but not yet acknowledged (the sweep re-emits
  /// these; non-zero means the next sweep has recovery work).
  [[nodiscard]] std::size_t pending_handoff_count() const {
    return pending_handoffs_.size();
  }

  struct MigrationStats {
    std::uint64_t started = 0;    // hand-offs initiated
    std::uint64_t completed = 0;  // snapshots installed at the destination
    std::uint64_t forwarded = 0;  // stale-addressed messages redirected
    std::uint64_t bounced = 0;    // stale-addressed messages past the TTL
    std::uint64_t reemitted = 0;  // snapshots re-sent by the sweep
  };
  [[nodiscard]] const MigrationStats& migration_stats() const {
    return migration_stats_;
  }

  /// Redirects a forwarding stub serves after its migration is
  /// acknowledged, before it expires (stale packets then bounce and rely
  /// on sweep re-emission). Tests shrink this to exercise the bounce path.
  void set_redirect_ttl(std::uint32_t ttl) { redirect_ttl_ = ttl; }

  /// Hook invoked when a hand-off completes (the snapshot was installed):
  /// arguments are (process, old site, new site). Oracles key their
  /// time-indexed site-of-record tracking on this.
  void set_on_migrated(
      std::function<void(ProcessId, SiteId, SiteId)> hook) {
    on_migrated_ = std::move(hook);
  }

  // -- Observability ------------------------------------------------------

  /// Attaches a metrics registry and/or event journal (either may be
  /// null). Strictly passive: attaching must not perturb a single wire
  /// byte — the golden-trace test enforces this. The engine caches the
  /// instrument pointers once here; hot paths then test one pointer.
  void attach_obs(obs::Registry* registry, obs::Journal* journal);

  [[nodiscard]] obs::Journal* journal() { return journal_; }

  /// Every process removed by GGD so far, in removal order.
  [[nodiscard]] const std::vector<ProcessId>& removed() const {
    return removed_;
  }

  /// Number of distinct sites that handled at least one GGD control
  /// message (consensus-bottleneck metric, T3).
  [[nodiscard]] std::size_t participating_sites() const {
    return participating_sites_.size();
  }
  /// Restarts participation accounting (benches reset after build phases).
  void reset_participation() { participating_sites_.clear(); }

  /// Total DV-log entries across live processes (space metric, T6).
  [[nodiscard]] std::size_t total_log_entries() const;

  /// The engine-owned pool backing every hosted process's tables
  /// (footprint introspection for benches and metrics).
  [[nodiscard]] const Pool& pool() const { return pool_; }

  /// Byte attribution of all hosted process state, split live vs
  /// tombstone (removed processes are kept for posthumous answers; this
  /// is how much that courtesy costs).
  struct EngineFootprint {
    GgdProcess::StorageFootprint live;
    GgdProcess::StorageFootprint tombstone;
    std::size_t live_count = 0;
    std::size_t tombstone_count = 0;
  };
  [[nodiscard]] EngineFootprint storage_footprint() const {
    EngineFootprint out;
    for (const GgdProcess& p : procs_) {
      if (p.removed()) {
        out.tombstone += p.storage_footprint();
        ++out.tombstone_count;
      } else {
        out.live += p.storage_footprint();
        ++out.live_count;
      }
    }
    return out;
  }

  /// Destruction messages still owed a first delivery (the sweep re-emits
  /// these; a non-zero count means the next sweep has recovery work).
  [[nodiscard]] std::size_t pending_destruction_count() const {
    return pending_destructions_.size();
  }

  /// Hook invoked when a process removes itself (the runtime uses this to
  /// demote the global root so local GC can reclaim the object).
  void set_on_removed(std::function<void(ProcessId)> hook) {
    on_removed_ = std::move(hook);
  }

  /// Hook invoked when a reference actually arrives at its recipient —
  /// i.e. when edge holder -> target of the global root graph comes into
  /// existence. Test oracles key their ground truth on this (a dropped
  /// reference-passing message must not count as an edge).
  void set_on_ref_delivered(std::function<void(ProcessId, ProcessId)> hook) {
    on_ref_delivered_ = std::move(hook);
  }

  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] const LazyLogKeeping& logkeeping() const {
    return logkeeping_;
  }

  /// Wire endpoint: reference transfers and GGD control traffic addressed
  /// to any site this engine hosts processes on.
  void deliver(SiteId from, SiteId to, const wire::WireMessage& msg) override;

 private:
  void deliver_ggd(GgdMessage msg);
  void dispatch_all(std::vector<GgdMessage> msgs);
  void schedule_flush(ProcessId p);
  /// Registers this engine as `site`'s mailbox unless a composite system
  /// (e.g. the distributed runtime) already installed its own.
  void attach_site(SiteId site);
  void send_ref_transfer(SiteId from, SiteId to, ProcessId recipient,
                         ProcessId subject);
  void on_ref_transfer(const wire::RefTransfer& transfer);
  void on_ggd_message(const GgdMessage& msg);
  /// Migration routing: true when the message was held (awaiting the
  /// mover's snapshot at the destination) or redirected/bounced because
  /// `at` is no longer (or not yet) `target`'s site-of-record; the caller
  /// must then NOT process it here.
  bool reroute_if_stale(SiteId at, ProcessId target,
                        const wire::WireMessage& msg);
  /// Redirect via the forwarding stub installed at `at` — one real wire
  /// send to the stub's next hop, consuming TTL once armed. Without a
  /// live stub the packet bounces (dropped; sweeps re-emit what matters).
  void redirect(SiteId at, ProcessId target, const wire::WireMessage& msg);
  void on_migrate_state(const wire::MigrateState& ms);
  void on_migrate_ack(SiteId at, const wire::MigrateAck& ack);

  /// Dense index of a registered process; checks registration.
  [[nodiscard]] std::uint32_t index_of(ProcessId id) const {
    const std::uint32_t idx = ids_.index_of(id);
    CGC_CHECK_MSG(idx != IdInterner<ProcessId>::kNone, "unknown process id");
    return idx;
  }
  [[nodiscard]] bool root_flag(ProcessId id) const {
    return root_by_idx_[index_of(id)] != 0;
  }
  /// Re-marks `id` hot for the generational sweep scheduler: any mutator
  /// operation or delivered message means its next decision may change,
  /// so the next round must scan it regardless of generation.
  void mark_touched(ProcessId id) {
    const std::uint32_t idx = ids_.index_of(id);
    if (idx != IdInterner<ProcessId>::kNone) {
      generations_.touch(idx);
    }
  }

  Network& net_;
  LazyLogKeeping logkeeping_;
  /// Bulk-owned memory for every hosted process's log and replica tables.
  /// Declared before `procs_` on purpose: members destroy in reverse
  /// order, so the processes release their rows before the pool dies.
  Pool pool_;
  /// Interned process table: `ids_` assigns the dense index, the deque
  /// (stable addresses) holds the process objects, and the two parallel
  /// vectors answer the walk's site/root queries in O(1).
  IdInterner<ProcessId> ids_;
  std::deque<GgdProcess> procs_;
  std::vector<SiteId> site_by_idx_;
  std::vector<std::uint8_t> root_by_idx_;
  /// Registered ids in increasing order — the wire-observable iteration
  /// order of the periodic sweep.
  FlatSet<ProcessId> proc_order_;
  std::vector<ProcessId> removed_;
  DenseMap<SiteId, std::uint64_t> participating_sites_;
  DenseSet<ProcessId> flush_scheduled_;
  DenseMap<ProcessId, SimTime> flush_delay_;
  /// Mutator edge-destruction messages not yet known to have arrived:
  /// kept until a destruction from the same dropper is delivered to the
  /// target, and re-emitted by the periodic sweep. This models the
  /// paper's recovery story — the local collector re-summarises and
  /// re-emits destruction events — so transient loss costs only latency,
  /// not comprehensiveness. Destruction messages are idempotent, so a
  /// re-emission racing the original is harmless duplication. Sorted:
  /// re-emission order is wire-observable.
  FlatMap<std::pair<ProcessId, ProcessId>, GgdMessage> pending_destructions_;
  /// Reference transfers are applied exactly once: a duplicated
  /// reference-passing message must not hand the recipient a reference its
  /// mutator already dropped.
  std::uint64_t transfer_counter_ = 0;
  DenseSet<std::uint64_t> applied_transfers_;

  // -- Migration state ----------------------------------------------------
  /// A hand-off in flight: the mover is frozen, its site-of-record still
  /// reads as the source until the snapshot is delivered.
  struct TransitRecord {
    std::uint64_t migration_id = 0;
    SiteId src;
    SiteId dst;
  };
  /// Forwarding stub left at a vacated site. Unarmed stubs (hand-off not
  /// yet acknowledged) forward unconditionally — the snapshot may still
  /// be in flight; the ack arms the TTL countdown, after which the stub
  /// serves `ttl` more redirects and dies. The periodic sweep reclaims
  /// what stale traffic never expires: stubs of collected processes at
  /// once, armed stubs after two full sweep rounds (any packet still
  /// stale-addressed by then bounces, which the sweep's re-emission
  /// machinery already recovers) — without this, stubs_ grows with every
  /// migration ever performed.
  struct ForwardStub {
    SiteId next;
    std::uint32_t ttl = 0;
    bool armed = false;
    std::uint8_t sweeps_survived = 0;
  };
  FlatMap<ProcessId, TransitRecord> in_transit_;
  FlatMap<std::pair<SiteId, ProcessId>, ForwardStub> stubs_;
  /// Messages that reached the hand-off destination before the snapshot:
  /// held and replayed, in arrival order, the instant the state lands.
  FlatMap<ProcessId, std::vector<wire::WireMessage>> transit_buffer_;
  /// Unacknowledged MigrateState messages, re-emitted by the sweep (the
  /// mover is frozen, so the stored copy stays authoritative). Sorted by
  /// migration id: re-emission order is wire-observable.
  FlatMap<std::uint64_t, wire::MigrateState> pending_handoffs_;
  /// Snapshots are installed exactly once per migration id: duplicated or
  /// re-emitted copies only re-acknowledge.
  DenseSet<std::uint64_t> applied_migrations_;
  std::uint64_t migration_counter_ = 0;
  std::uint32_t redirect_ttl_ = 16;
  MigrationStats migration_stats_;
  std::function<void(ProcessId, SiteId, SiteId)> on_migrated_;

  std::function<void(ProcessId)> on_removed_;
  std::function<void(ProcessId, ProcessId)> on_ref_delivered_;

  // -- Sweep scheduler state ----------------------------------------------
  /// Resumable position of the sweep round in progress. Cursors are the
  /// last-visited *keys* (resumed via upper_bound), so the tables may
  /// erase entries and reallocate between slices without invalidating the
  /// round. kIdle means no round is open — the next slice starts one.
  struct SweepCursor {
    enum class Phase : std::uint8_t {
      kIdle,
      kDestructions,
      kStubs,
      kHandoffs,
      kScan,
    };
    Phase phase = Phase::kIdle;
    std::pair<ProcessId, ProcessId> destruction_key{};
    bool have_destruction_key = false;
    std::pair<SiteId, ProcessId> stub_key{};
    bool have_stub_key = false;
    std::uint64_t handoff_key = 0;
    bool have_handoff_key = false;
    ProcessId scan_key{};
    bool have_scan_key = false;
    std::uint64_t scanned = 0;        // processes decided this round
    std::uint64_t slices = 0;         // slices this round has taken
    std::uint64_t round_wall_us = 0;  // summed slice walls (obs only)
  };
  SweepCursor sweep_cursor_;
  sweep::GenerationTable generations_;
  std::uint64_t sweep_round_ = 0;
  /// Budget of the most recent slice: what backlog estimates assume the
  /// next rounds will run with.
  std::uint64_t last_sweep_budget_ = sweep::kUnbounded;

  // -- Observability instruments (all null/zero when not attached) --------
  /// Cached registry instruments; looked up once in attach_obs so the
  /// sweep/walk hot paths never do a by-name lookup.
  struct DetectorMetrics {
    obs::TickHistogram* sweep_pause_us = nullptr;
    obs::TickHistogram* sweep_scanned = nullptr;
    obs::TickHistogram* sweep_slices = nullptr;
    obs::TickHistogram* walk_consulted = nullptr;
    obs::TickHistogram* relay_rows = nullptr;
    obs::Counter* walks = nullptr;
    obs::Counter* walks_blocked = nullptr;
    obs::Counter* walks_unreachable = nullptr;
    obs::Counter* destructions_reemitted = nullptr;
    obs::Counter* stubs_reclaimed = nullptr;
    obs::Counter* inquiries = nullptr;
    /// ggd.inquiries split by GgdProcess::InquiryReason; the four sum to
    /// `inquiries` because decide() is the only inquiry source.
    std::array<obs::Counter*, GgdProcess::kInquiryReasons>
        inquiries_by_reason{};
  };
  DetectorMetrics metrics_;
  obs::Journal* journal_ = nullptr;
  bool obs_attached_ = false;
  RelayPolicy relay_policy_ = RelayPolicy::kDelta;

  /// Records the observation of the decision walk `p` just ran (metrics +
  /// journal verdict record). No-op when observability is not attached.
  void observe_walk(GgdProcess& p, SimTime now);
};

}  // namespace cgc
