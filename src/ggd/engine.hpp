// GgdEngine: the simulator host of the GGD site state machine.
//
// It works at global-root-graph granularity (one process per global root,
// §3.1): the object runtime maps object-level mutator activity down to
// these operations, and the complexity benches and the worked-example
// test use it directly. Reference transfers and control messages travel
// as serialized wire messages through the same faulty network.
//
// The per-site algorithm (log keeping, control-message delivery, removal
// bookkeeping, the periodic sweep, metrics and journal) is SiteCore,
// which the threaded SiteNode drives too. The engine runs one core over
// every process it hosts, on any number of sites, and is the mailbox of
// every such site (composite systems register their own demultiplexing
// mailbox first and forward GGD bodies here). Its side of the host
// interface: wire sends over the simulated Network between sites of
// record, flushes coalesced on a backoff timer, simulated time, per-index
// root and site arrays, and all of migration — snapshots, forwarding
// stubs, held messages, and the stub and hand-off sweep phases, which run
// between the core's destruction re-emission and its scan.
//
// The engine also re-marks a delivered transfer's subject and a new
// object's creator hot for the generational sweep, and counts the sites
// that handled control messages.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/dense_map.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "ggd/process.hpp"
#include "ggd/site_core.hpp"
#include "ggd/sweep.hpp"
#include "logkeeping/lazy_logkeeping.hpp"
#include "net/network.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "wire/mailbox.hpp"

namespace cgc {

class GgdEngine final : public wire::Mailbox, private SiteHost {
 public:
  GgdEngine(Network& net, LogKeepingMode mode = LogKeepingMode::kRobust)
      : net_(net), core_(*this, root_flags_, mode) {}

  /// Registers a global root `id` living on `site`. Roots (`is_root`) are
  /// entry points of the mutator and are never collected.
  GgdProcess& add_process(ProcessId id, SiteId site, bool is_root);

  [[nodiscard]] bool has_process(ProcessId id) const {
    return core_.hosts(id);
  }
  [[nodiscard]] GgdProcess& process(ProcessId id) { return core_.process(id); }
  [[nodiscard]] const GgdProcess& process(ProcessId id) const {
    return core_.process(id);
  }
  [[nodiscard]] SiteId site_of(ProcessId id) const override {
    return site_by_idx_[core_.index_of(id)];
  }

  /// All registered process ids in increasing order (deterministic sweep
  /// order), and the count.
  [[nodiscard]] const FlatSet<ProcessId>& process_ids() const {
    return core_.process_ids();
  }
  [[nodiscard]] std::size_t process_count() const {
    return core_.processes().size();
  }

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
  /// sender-side attribution it cannot compute; see the granularity
  /// mapping in runtime/runtime.hpp).
  void local_acquire(ProcessId j, ProcessId k);

  /// One round of the periodic GGD sweep a deployed system runs alongside
  /// local garbage collection: every live non-root process re-evaluates
  /// its garbage decision with inquiry rate limits reset, so stale
  /// verdicts left behind by quiesced cascades are re-verified. Message
  /// cost stays proportional to unresolved structures. Unacknowledged
  /// migration snapshots and undelivered destructions are re-emitted
  /// (loss costs latency, not comprehensiveness).
  ///
  /// Loops `sweep_slice` with an unbounded budget: one whole round in the
  /// historical order (wire-golden byte identity).
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
  [[nodiscard]] std::uint64_t sweep_round() const {
    return core_.sweep_round();
  }

  /// Where `p` stands in the sweep queue under the budget this engine
  /// last swept with — generation, rounds until its generation comes up,
  /// and an estimate of slices until the scan reaches it. `cgc-explain`
  /// turns this into the `awaiting_sweep` backlog report.
  [[nodiscard]] sweep::Backlog sweep_backlog(ProcessId p) const {
    return core_.sweep_backlog(p);
  }

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

  [[nodiscard]] obs::Journal* journal() { return core_.journal(); }

  /// Every process removed by GGD so far, in removal order.
  [[nodiscard]] const std::vector<ProcessId>& removed() const {
    return core_.removed();
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
  [[nodiscard]] const Pool& pool() const { return core_.pool(); }

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
    for (const GgdProcess& p : core_.processes()) {
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
    return core_.pending_destruction_count();
  }

  /// Hook invoked when a process removes itself (the runtime uses this to
  /// demote the global root so local GC can reclaim the object).
  void set_on_removed(std::function<void(ProcessId)> hook) {
    core_.set_on_removed(std::move(hook));
  }

  /// Hook invoked when a reference actually arrives at its recipient —
  /// i.e. when edge holder -> target of the global root graph comes into
  /// existence. Test oracles key their ground truth on this (a dropped
  /// reference-passing message must not count as an edge).
  void set_on_ref_delivered(std::function<void(ProcessId, ProcessId)> hook) {
    core_.set_on_ref_delivered(std::move(hook));
  }

  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] const LazyLogKeeping& logkeeping() const {
    return core_.logkeeping();
  }

  /// Wire endpoint: reference transfers and GGD control traffic addressed
  /// to any site this engine hosts processes on.
  void deliver(SiteId from, SiteId to, const wire::WireMessage& msg) override;

 private:
  // -- SiteHost: the simulator's side of the core ---------------------------
  void route(ProcessId from, ProcessId to,
             const wire::WireMessage& msg) override {
    net_.send(site_of(from), site_of(to), msg);
  }
  /// Coalescing flush timer with exponential backoff (see the .cpp).
  void schedule_flush(ProcessId p) override;
  [[nodiscard]] SimTime now() const override {
    return net_.simulator().now();
  }
  [[nodiscard]] bool frozen(ProcessId p) const override {
    return migrating(p);
  }
  /// Stub reclamation and hand-off re-emission.
  bool sweep_host_phases(sweep::Budget& budget) override;

  /// Registers this engine as `site`'s mailbox unless a composite system
  /// (e.g. the distributed runtime) already installed its own.
  void attach_site(SiteId site);
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

  /// The walk's root predicate: one interner probe plus an array read.
  struct RootFlags {
    const GgdEngine* engine;
    bool operator()(ProcessId p) const {
      return engine->root_by_idx_[engine->core_.index_of(p)] != 0;
    }
  };

  Network& net_;
  /// Site-of-record and root flag per core dense index: the walk's
  /// site/root queries in O(1).
  std::vector<SiteId> site_by_idx_;
  std::vector<std::uint8_t> root_by_idx_;
  RootFlags root_flags_{this};
  SiteCore core_;
  DenseMap<SiteId, std::uint64_t> participating_sites_;
  DenseSet<ProcessId> flush_scheduled_;
  DenseMap<ProcessId, SimTime> flush_delay_;
  std::uint64_t transfer_counter_ = 0;

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

  /// Resume position of the host sweep phases within the core's round;
  /// rewound whenever the core starts a round. Keys, not iterators.
  struct HostSweepCursor {
    bool handoffs = false;  // the stub phase is done
    std::pair<SiteId, ProcessId> stub_key{};
    bool have_stub_key = false;
    std::uint64_t handoff_key = 0;
    bool have_handoff_key = false;
  };
  HostSweepCursor host_cursor_;
  obs::Counter* stubs_reclaimed_ = nullptr;
};

}  // namespace cgc
