// One logical process of the GGD computation — the state a global root
// keeps and the paper's algorithm (Fig. 6) over it.
//
// A GgdProcess owns:
//   * the two-dimensional log DV_i (a RowTable keyed by process; the
//     self row is the row kept for this process's own id),
//   * its acquaintance set (targets of its outgoing edges in the global
//     root graph — the "remote successors" Fig. 6 forwards vectors to),
//   * its root flag (actual roots are never collected by GGD),
//   * its removed flag (set exactly once, when GGD proves the root
//     unreachable).
//
// Log-keeping entry points (§3.4, lazy) are in logkeeping/lazy_logkeeping.*;
// they mutate this state from the mutator side. This class implements the
// *detector* side: Receive, ComputeV, the garbage decision and the
// finalisation (edge-destruction) cascade.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/flat_map.hpp"
#include "common/function_ref.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"
#include "vclock/row_table.hpp"

namespace cgc {

/// A GGD control message: the dependency vector `v` sent from process
/// `from`. If `v[from]` is destruction-marked this is an edge-destruction
/// control message (possibly bundling deferred third-party edge-creation
/// entries, §3.4); otherwise it is a vector-propagation message (§3.3
/// step 3).
///
/// `self_row` is the sender's self row — its DDV of *edge facts* (slot q =
/// latest known state of edge q -> sender, destruction-marked when that
/// edge died). Receivers accumulate these rows; the garbage decision walks
/// them as a replicated, edge-precise image of the global root graph's
/// in-edges. This is the load-bearing refinement over the paper's 8-page
/// presentation: an aggregated vector time cannot distinguish two edges
/// held by the same process, so a destruction marker for one of them would
/// mask the other (the MultiEdgeMaskingIsPerEdge process test pins that
/// failure case).
struct GgdMessage {
  ProcessId from;
  ProcessId to;
  DependencyVector v;
  DependencyVector self_row;
  /// Deferred third-party edge-creation entries the sender logged on the
  /// receiver's behalf (§3.4). The paper delivers these only bundled with
  /// the final edge-destruction message; attaching the current behalf row
  /// to *every* message (still zero additional messages) closes the race
  /// between a vector forward and the pending bundle that would have
  /// rescued the receiver.
  DependencyVector behalf;
  /// The sender's deferred on-behalf rows that the receiver has not yet
  /// merged: for each third party q, the edge-creation entries the sender
  /// logged on q's behalf (§3.4) but has not yet delivered to q. Replies
  /// carry these so a walker whose verdict depends on a TRANSITIVE
  /// subject's in-edges can see grants that exist only at a forwarder —
  /// without them, a process two hops from a lazily-deferred rescue edge
  /// can prove a live structure dead (found by scenario fuzzing). A reply
  /// ships only the rows written since the inquiry's `echo`, so each
  /// version of a row reaches an inquirer once.
  FlatMap<ProcessId, DependencyVector> behalf_rows;
  /// On a reply: the highest stamp of what it ships — its `behalf_rows`
  /// and, unless it is `current`, its `v` and `self_row` — drawn from the
  /// sender's revision counter (0 when it ships none of them). Stamps
  /// carry no protocol meaning beyond this frontier.
  std::uint64_t reply_stamp = 0;
  /// On an inquiry: the highest `reply_stamp` the sender has merged from
  /// the receiver's replies — whatever the receiver stamped at or below it
  /// is already merged. 0 asks for everything, and so does an echo of an
  /// earlier incarnation of the receiver: a migrated process re-stamps
  /// what it ships above every stamp it drew before.
  std::uint64_t echo = 0;
  /// Relayed in-edge rows of other processes, versioned by their subjects'
  /// own counters. Rows flooding along the cascade is what keeps the
  /// message COUNT of collecting a k-element structure at O(k) (§4's
  /// comparison): without relaying, every member must inquire every other
  /// member's row — O(k^2) messages. Only rows new or changed since the
  /// receiver's frontier ship (O(changed), not O(population), bytes per
  /// forward). Messages that travel along edges relay rows: vector
  /// forwards, announces and destruction bundles. Inquiries carry none,
  /// and a reply carries them only when its inquiry is `need_rows`; every
  /// other reply is its sender's own account, since the walk that asked
  /// inquires each subject its verdict rests on and gets that subject's
  /// row as `self_row`.
  FlatMap<ProcessId, DependencyVector> rows;
  /// Sender-local revision stamps, one per entry of `rows` (same keys).
  /// Revisions are drawn from a per-process monotone counter and bumped
  /// whenever the stored copy of a row actually changes — subject event
  /// counters alone cannot version a row because equal-version merges
  /// (behalf overlays, conservative resurrections) change content without
  /// advancing the subject's counter. The counter travels with a migrating
  /// process, so no stamp is ever drawn twice. Receivers do not read them.
  FlatMap<ProcessId, std::uint64_t> row_revs;
  /// Never filled: the relay keeps no per-row acks (a lost row is fetched
  /// by the inquiry that needs it). The member and its wire field remain
  /// because the benchmark's byte ledger still reads them.
  FlatMap<ProcessId, std::uint64_t> row_acks;
  /// Processes known to have been collected. Death is a stable global
  /// fact (a removed global root has no edges and will never be revived),
  /// so it propagates monotonically on every message; it is what clears
  /// lingering live entries of long-collected processes out of circulated
  /// histories.
  FlatSet<ProcessId> dead;
  /// Demand-driven completion: a process whose garbage decision is
  /// blocked on an entry it cannot vouch sends an inquiry to the entry's
  /// subject; the subject replies with its certified history (`reply`),
  /// or its hosting site replies posthumously with a death certificate.
  /// Inquiries are sent at most once per subject, so the extra traffic
  /// stays proportional to the amount of garbage.
  bool inquiry = false;
  /// Marks a message that answers an inquiry: it certifies the sender's
  /// history but must NOT be read as evidence of an edge sender -> to.
  bool reply = false;
  /// On a reply: the inquiry's `echo` already covers the sender's `v` and
  /// `self_row`, so the reply leaves both out. The inquirer merged them
  /// from an earlier reply, and merging them again would change nothing.
  bool current = false;
  /// Replies carry the responder's out-edge verdict on the receiver,
  /// whether its acquaintances include `to`, so an inquirer can verify a
  /// resurrected edge claim: a fresh "I do not hold you" refutes the
  /// claimed edge responder -> inquirer (and also heals a lost destruction
  /// message).
  bool holds_receiver = false;
  /// On an inquiry: the sender's walk is blocked on a row it does not
  /// hold, so the reply relays the rows past the sender's watermark, as
  /// an edge message would. Asking the subjects one by one costs a round
  /// trip per hop of the walk, and under loss a lost hop stalls the walk
  /// until the next sweep round; the relayed rows usually carry the next
  /// hops too.
  bool need_rows = false;
  /// Condemned set of a confirmed unreachable verdict, carried on the
  /// destruction messages of its removal cascade (empty elsewhere). The
  /// finalising walker's consulted rows were each confirmed fresh and
  /// hold no live path from a root, so the set is closed under in-edges
  /// and holds no root: every member is garbage, which is stable (§5). A
  /// receiver named in it removes itself without a confirmation round of
  /// its own and forwards the same set.
  FlatSet<ProcessId> condemned;

  [[nodiscard]] bool is_destruction() const {
    return v.get(from).destroyed();
  }

  [[nodiscard]] bool operator==(const GgdMessage&) const = default;
};

/// The serializable core of a GgdProcess: everything a cross-site
/// hand-off must carry for the mover to resume exactly where it left off
/// — fact state (log rows, replicas, death knowledge, refutation
/// ceilings, delivery confirmations) AND the decision-gating state
/// (inquiry rate limits, verification epochs, confirmation times).
/// Gating state travels too, deliberately: the forwarding stub chases
/// in-flight replies to the mover's new site, so outstanding inquiries
/// stay answerable, and dropping the gates instead was measured to
/// re-trigger a full re-verification burst per hand-off — under
/// migration churn those bursts compound into row-map bloat and a
/// quadratic message storm. A reply that bounces once the sweep has
/// reclaimed the stub leaves its gate stuck only until the next periodic
/// sweep, which clears every gate anyway (that is the sweep's existing
/// recovery job).
struct GgdProcessSnapshot {
  ProcessId id;
  bool is_root = false;
  /// Every log row (self row included), increasing ProcessId order.
  FlatMap<ProcessId, DependencyVector> log_rows;
  FlatSet<ProcessId> acquaintances;
  FlatMap<ProcessId, DependencyVector> history;
  FlatMap<ProcessId, DependencyVector> known_rows;
  FlatMap<ProcessId, DependencyVector> known_behalf;
  FlatSet<ProcessId> dead;
  FlatSet<ProcessId> resurrected;
  FlatMap<ProcessId, std::uint64_t> resurrect_fact_index;
  FlatMap<ProcessId, std::uint64_t> refuted_fact_ceiling;
  FlatMap<ProcessId, std::uint64_t> in_edge_confirmed;
  DependencyVector last_v;
  bool forward_pending = false;
  // Decision-gating state.
  FlatSet<ProcessId> inflight_inquiries;
  FlatMap<ProcessId, std::uint64_t> blocked_inquired_version;
  FlatMap<ProcessId, std::uint64_t> inquired_version;
  FlatMap<ProcessId, std::uint64_t> confirm_time;
  bool pending_verify = false;
  std::uint64_t pending_verify_since = 0;
  /// The revision counter: the mover keeps drawing stamps above every
  /// stamp it drew here, so an echo of an old stamp can never be read as
  /// one of a new stamp.
  std::uint64_t rev_counter = 0;

  [[nodiscard]] bool operator==(const GgdProcessSnapshot&) const = default;
};

/// Whether a process is an actual root of the global root graph: asked by
/// the decision walk for every process it reaches, so it is passed as a
/// non-owning reference to the host's callable.
using RootPredicate = FunctionRef<bool(ProcessId)>;

class GgdProcess {
 public:
  /// `pool` (optional) supplies bulk-owned memory for the log and the
  /// replica tables — the engine / site node passes its own so every
  /// hosted process shares one arena; null keeps plain heap backing.
  GgdProcess(ProcessId id, bool is_root, Pool* pool = nullptr)
      : id_(id),
        is_root_(is_root),
        log_(pool),
        history_(pool),
        known_rows_(pool),
        known_behalf_(pool) {}

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool is_root() const { return is_root_; }
  [[nodiscard]] bool removed() const { return removed_; }

  /// Unrestricted write access to the log, for tests and tools. It cannot
  /// tell which rows the caller changes, so it treats the self row as
  /// changed and has the next reply re-stamp every on-behalf row (each
  /// inquirer then receives them all again). The mutator side writes through the
  /// log writers below instead.
  [[nodiscard]] RowTable& log() {
    self_row_changed();
    log_stamps_stale_ = true;
    return log_;
  }
  [[nodiscard]] const RowTable& log() const { return log_; }

  /// The self row: slot q is the latest known state of edge q -> this
  /// process. Reads as empty until the first write.
  [[nodiscard]] RowTable::RowView self_row() const { return log_.row(id_); }
  /// This process's own latest event index.
  [[nodiscard]] Timestamp own_timestamp() const {
    return self_row().get(id_);
  }

  /// The log writers lazy log-keeping (§3.4) uses: entry `slot` of the
  /// row kept for `row` (the self row when `row` is this process). A
  /// write that changes the self row marks the cached V stale and the
  /// next reply's content changed; one that changes another row stamps it
  /// afresh from the revision counter, so the next reply to each inquirer
  /// ships it.
  Timestamp increment_log(ProcessId row, ProcessId slot);
  void merge_log_entry(ProcessId row, ProcessId slot, Timestamp ts);
  /// A new local log-keeping event: bumps this process's own counter.
  Timestamp new_local_event() { return increment_log(id_, id_); }
  /// Drops the on-behalf row kept for `row` (its bundle has been sent).
  void erase_log_row(ProcessId row);

  [[nodiscard]] const FlatSet<ProcessId>& acquaintances() const {
    return acquaintances_;
  }
  void add_acquaintance(ProcessId q) { acquaintances_.insert(q); }
  void remove_acquaintance(ProcessId q) { acquaintances_.erase(q); }

  /// The paper's `Receive(i, v, m)` (Fig. 6, as reconstructed here: each
  /// message branch's rule is stated at its branch in process.cpp).
  /// Returns the control messages to send; whether this process decided
  /// it is garbage is observable via `removed()`.
  ///
  /// Idempotent: processing a duplicate of any previously processed message
  /// produces no state change and no output (tested, not assumed).
  [[nodiscard]] std::vector<GgdMessage> receive(const GgdMessage& msg,
                                                RootPredicate is_root,
                                                SimTime now = 0);

  /// ComputeV (Fig. 6): the best vector-time approximation of this
  /// process's latest log-keeping event derivable from the local log alone.
  /// Seeded with the self row (destruction markers included — they act as
  /// floors that prevent stale third-party rows from resurrecting masked
  /// entries), then closed transitively over the log's rows. Each certified
  /// history is expanded at most once per call. While none of the
  /// closure's inputs (self row, certified histories, death knowledge)
  /// has changed since receive() last closed them, that closure is the
  /// answer and is returned without running it again.
  [[nodiscard]] DependencyVector compute_v() const;

  /// Builds the finalisation messages this process sends when it removes
  /// itself (or when the mutator side destroys one specific edge — see
  /// lazy_logkeeping). Exposed for the destructor cascade and for tests.
  /// Non-const: attaching rows advances the destination's sent watermark.
  /// `condemned` rides along when it names `to` (see GgdMessage).
  [[nodiscard]] GgdMessage make_destruction_message(
      ProcessId to, const FlatSet<ProcessId>& condemned = {});

  /// Marks the process removed and returns the finalisation cascade
  /// messages (one edge-destruction message per acquaintance), each
  /// carrying `condemned` if it is addressed to a member of that set.
  [[nodiscard]] std::vector<GgdMessage> remove_self(
      const FlatSet<ProcessId>& condemned = {});

  /// Builds the answer to `inquiry`: this process's current vector-time
  /// approximation and self row unless the inquiry's `echo` shows the
  /// inquirer already holds them (a `current` reply), vouchers and death
  /// knowledge, flagged as a reply so the inquirer does not mistake it for
  /// an edge fact, plus the deferred on-behalf rows stamped past the echo.
  /// It is this process's own account and relays no `rows`, leaving the
  /// inquirer's sent watermark where it was, unless the inquiry is
  /// `need_rows`: then it relays the rows past that watermark, as an edge
  /// message does.
  [[nodiscard]] GgdMessage make_reply(const GgdMessage& inquiry);

  /// The site's answer to `inquiry`. A live process first adjudicates the
  /// deferred grants the inquiry carries in `behalf` (resurrect,
  /// lease-verify or refute), so its reply never certifies an in-edge row
  /// a pending regrant is about to change, then replies. A removed one
  /// re-issues its final destruction bundle to the inquirer instead.
  [[nodiscard]] GgdMessage answer(const GgdMessage& inquiry);

  /// Builds an edge announce: a regular vector message to `to` asserting
  /// the newly created edge this -> to (the runtime layer sends one per
  /// new summarised global-root-graph edge; asynchronous and idempotent).
  [[nodiscard]] GgdMessage make_announce(ProcessId to);

  /// True iff a vector received directly from `q` has been merged into the
  /// history map — i.e. we hold `q`'s own account of its causal history
  /// rather than (only) entries logged on `q`'s behalf by third parties.
  [[nodiscard]] bool row_certified(ProcessId q) const {
    return history_.contains(q);
  }
  void decertify_row(ProcessId q) {
    history_.erase(q);
    v_current_ = false;
    // The row's stamp goes with it: a later re-adoption stamps a fresh
    // revision from the monotone counter, so peers whose frontier saw the
    // decertified copy re-receive it.
    known_rows_.erase(q);
    // q's next reply must ship what was just dropped.
    echo_.erase(q);
  }

  /// Accumulated third-party on-behalf knowledge: for subject q, the
  /// merged deferred edge-creation entries reported by any forwarder.
  /// Overlaid on q's replica row during the walk.
  [[nodiscard]] const RowTable& known_behalf() const { return known_behalf_; }

  /// The edge-precise in-edge row of `q` as last reported by `q` itself
  /// (replace-if-newer by q's own event counter). Non-exists() if unknown.
  /// Its stamp() is the row's delta-relay revision.
  [[nodiscard]] RowTable::RowView known_row(ProcessId q) const {
    return known_rows_.row(q);
  }

  /// Outcome of the edge-precise reachability walk over known self rows.
  enum class WalkResult { kReachable, kUnreachable, kBlocked };

  /// Why decide() sent an inquiry, one value per inquiry site:
  /// re-verifying a reachable verdict's replica evidence, confirming an
  /// unreachable verdict's consulted rows, fetching a blocked walk's
  /// missing row, or verifying an unconfirmed in-edge lease.
  enum class InquiryReason : std::uint8_t {
    kReverify,
    kConfirm,
    kBlocked,
    kLease,
  };
  static constexpr std::size_t kInquiryReasons = 4;

  /// Shape of the most recent decision walk, captured only when the
  /// engine has observability attached (`set_observer`). Strictly
  /// diagnostic: never consulted by protocol code and deliberately NOT
  /// part of GgdProcessSnapshot — a migrated process starts with no
  /// recorded walk at its destination.
  struct WalkObservation {
    WalkResult result = WalkResult::kReachable;
    std::uint32_t consulted = 0;  // replica rows the walk expanded
    std::uint32_t missing = 0;    // rows the walk wanted but lacked
    ProcessId first_missing;      // one concrete inquiry target, if any
    /// Inquiries the decision sent, indexed by InquiryReason.
    std::array<std::uint32_t, kInquiryReasons> inquiries{};
    bool valid = false;
  };

  /// Where an observed process records its diagnostics: the last
  /// decide() walk and the ComputeV closures run since they were last
  /// taken (a V reused because its inputs had not changed is not a
  /// closure). The host owns it and may share one among the processes it
  /// drives one at a time, taking each process's record right after the
  /// call that made it.
  struct Observation {
    WalkObservation walk;
    std::uint32_t v_closures = 0;
  };

  /// Records diagnostics into `sink` (null: unobserved, the default, so
  /// unobserved runs pay nothing). `sink` must outlive its use here.
  void set_observer(Observation* sink) { obs_ = sink; }

  /// Returns and invalidates the observation of the last decide() walk
  /// (invalid when unobserved).
  [[nodiscard]] WalkObservation take_last_walk() {
    if (obs_ == nullptr) {
      return {};
    }
    return std::exchange(obs_->walk, WalkObservation{});
  }

  /// Returns and resets the closure count (0 when unobserved).
  [[nodiscard]] std::uint32_t take_v_closures() {
    return obs_ == nullptr ? 0 : std::exchange(obs_->v_closures, 0);
  }

  /// Walks the replicated in-edge rows from this process's live incoming
  /// edges towards the roots. kBlocked means some transitive predecessor's
  /// row is missing; `missing` receives those processes (inquiry targets).
  /// On kReachable, `root_evidence` receives the subjects of the replica
  /// rows that supplied the live root entries (empty when the evidence is
  /// this process's own self row, which is authoritative). `consulted`
  /// receives every non-dead subject whose replica row the walk expanded —
  /// the rows an unreachable verdict rests on. The walk's own visited set
  /// and stack are per-thread scratch: it allocates nothing once warm.
  [[nodiscard]] WalkResult walk_to_root(
      RootPredicate is_root, FlatSet<ProcessId>& missing,
      FlatSet<ProcessId>& root_evidence, FlatSet<ProcessId>& consulted) const;

  /// Runs the garbage decision (walk + removal or inquiries) without a
  /// triggering message. Used by the periodic sweep that models the
  /// ongoing local-GC / GGD activity of a deployed system (§5's answer to
  /// unbounded detection latency).
  /// `allow_inquiry` is set by the periodic sweep only: during an active
  /// cascade the missing information is already on its way in relayed
  /// rows, and inquiring for it would multiply traffic; after quiescence
  /// the sweep's inquiries are the stall-recovery mechanism.
  [[nodiscard]] std::vector<GgdMessage> decide(RootPredicate is_root,
                                               bool allow_inquiry,
                                               SimTime now = 0);

  /// True when this process's vector time improved since its last flush —
  /// the engine coalesces forwards (one per process per delivery tick), so
  /// a wave of partial updates leaves as ONE consolidated vector. This is
  /// what keeps the §4 message complexity linear in the garbage size.
  [[nodiscard]] bool forward_pending() const { return forward_pending_; }

  /// Builds the coalesced forwards (current V + rows to every
  /// acquaintance) and clears the pending flag.
  [[nodiscard]] std::vector<GgdMessage> take_forwards();

  /// Clears the inquiry rate-limiting state so a sweep can re-verify stale
  /// verdicts.
  void reset_inquiry_gates();

  /// The relay's sent watermark for `peer`: every known row stamped at or
  /// below it has been shipped to `peer` (0: nothing yet, or `peer` is
  /// known dead).
  [[nodiscard]] std::uint64_t peer_sent_rev(ProcessId peer) const {
    auto it = sent_watermark_.find(peer);
    return it == sent_watermark_.end() ? 0 : it->second;
  }
  /// The echo this process holds for `peer`: the highest reply stamp
  /// merged from its replies (0: none, the next inquiry asks for
  /// everything).
  [[nodiscard]] std::uint64_t echo(ProcessId peer) const {
    auto it = echo_.find(peer);
    return it == echo_.end() ? 0 : it->second;
  }

  /// Certified causal histories of other processes, keyed by sender. Kept
  /// separate from the on-behalf rows in `log_`: the self row and the
  /// behalf rows hold *edge facts* of the global root graph; this table
  /// holds *claims about reachability history* received from their
  /// subjects.
  [[nodiscard]] const RowTable& history() const { return history_; }

  /// Where this process's bytes actually live — capacity-based, so the
  /// numbers add up to what the allocators hold, not just what is
  /// filled: the heap blocks each member owns, plus the GgdProcess
  /// object itself. Allocator headers and pool size-class rounding are
  /// not counted, so RSS reads somewhat higher. The memory diet steers by
  /// this attribution (summed across the engine by
  /// GgdEngine::storage_footprint).
  struct StorageFootprint {
    std::size_t object_bytes = 0;   ///< sizeof(GgdProcess)
    std::size_t log_bytes = 0;      ///< log: self + on-behalf rows
    std::size_t history_bytes = 0;  ///< certified peer histories
    std::size_t known_bytes = 0;    ///< replica rows of peers
    std::size_t behalf_bytes = 0;   ///< forwarded on-behalf rows
    std::size_t relay_bytes = 0;    ///< relay watermarks, echoes, `dead`
    std::size_t gate_bytes = 0;     ///< verdict-gating side tables
    [[nodiscard]] std::size_t total() const {
      return object_bytes + log_bytes + history_bytes + known_bytes +
             behalf_bytes + relay_bytes + gate_bytes;
    }
    StorageFootprint& operator+=(const StorageFootprint& o) {
      object_bytes += o.object_bytes;
      log_bytes += o.log_bytes;
      history_bytes += o.history_bytes;
      known_bytes += o.known_bytes;
      behalf_bytes += o.behalf_bytes;
      relay_bytes += o.relay_bytes;
      gate_bytes += o.gate_bytes;
      return *this;
    }
  };
  [[nodiscard]] StorageFootprint storage_footprint() const;

  /// Releases every byte a removed process will never be asked about
  /// again. A tombstone still answers inquiries posthumously — its
  /// death certificate re-issue reads the log's behalf rows, `dead`,
  /// and the relay watermarks (attach_sync ships replica rows to peers
  /// behind their watermark) — so that remainder is kept but
  /// tight-packed; the walk/verdict side (history, on-behalf forwards,
  /// gating tables) is provably unread once `removed()` and is dropped
  /// outright. Wire-passive by construction: only storage that no
  /// posthumous code path reads is released. The engine calls this at
  /// the removal transition; ~half the large bench's peak RSS was
  /// tombstone state before it did.
  void retire_tombstone();

  /// Capacity-only diet pass for a LIVE process, run at sweep-round
  /// boundaries: reclaims dead column slots the lazy compaction
  /// threshold hasn't reached yet and drops the geometric growth slack
  /// of the long-lived maps and sets. Content is untouched, so the wire
  /// trace cannot change; the cost is a memcpy of the live state, which
  /// is why the engine throttles it to every few rounds.
  void trim_storage();

  /// Serializes the fact state for a cross-site hand-off. The process
  /// must be live (a removed process has no state worth moving).
  [[nodiscard]] GgdProcessSnapshot export_state() const;

  /// Adopts a delivered hand-off snapshot wholesale: fact state AND the
  /// decision-gating state are replaced by the wire's copy (the packet is
  /// authoritative — this is what makes the transfer atomic at the
  /// protocol level). Gating resumes unchanged on purpose; see the
  /// GgdProcessSnapshot comment for why resetting it instead compounds
  /// into re-verification storms under migration churn.
  void import_state(const GgdProcessSnapshot& snap);

  [[nodiscard]] const FlatSet<ProcessId>& dead() const { return dead_; }

 private:
  /// Merges announced edge facts (bundled or per-message behalf entries)
  /// into the self row with conservative resurrection of entries that an
  /// older destruction marker would otherwise mask.
  void merge_edge_facts(const DependencyVector& facts, ProcessId skip);

  /// The one writer of self-row entries inside the detector: stores `ts`
  /// in slot `q` and, if the entry changed, notes the self row changed.
  void set_self_entry(ProcessId q, Timestamp ts);

  /// `m` holds us right now: its in-edge claim is delivery-confirmed up
  /// to the slot's present index (unless the slot is a delta or a
  /// destruction marker).
  void confirm_in_edge(ProcessId m);

  /// After a change to the self row: it is a closure input, so the cached
  /// V is stale, and it is reply content, so the next reply draws a fresh
  /// content stamp.
  void self_row_changed() {
    v_current_ = false;
    content_stamp_ = 0;
  }

  /// The stamp of the content a reply would ship now, the self row and
  /// compute_v(), drawn afresh if either may have changed since it was
  /// last drawn. Leaves compute_v() in `v` when the cached V is stale (`v`
  /// is untouched otherwise: the reply ships last_v_).
  std::uint64_t stamp_reply_content(DependencyVector& v);

  /// Stamps `row` (a known row or an on-behalf log row) with a fresh
  /// revision. The counter is monotone for the life of this process,
  /// migrations included, so a re-adopted, recreated or re-imported row
  /// (decertify, death purge, erase, hand-off, then a fresh write) always
  /// out-revisions every stamp any peer ever saw — no ABA on a frontier.
  void stamp_row(RowTable::RowRef row) { row.set_stamp(++rev_counter_); }

  /// Attaches the known rows stamped past msg.to's sent watermark, then
  /// advances the watermark to the revision counter. A peer known dead
  /// gets no rows and keeps no watermark.
  void attach_sync(GgdMessage& msg);

  /// Appends one inquiry to `q` to `out`: the deferred grants held for q
  /// ride along (q adjudicates them before its reply certifies anything),
  /// but no rows (the site answers an inquiry without receive(), so they
  /// would be bytes sent for nothing). Counts `why` when observed.
  void emit_inquiry(std::vector<GgdMessage>& out, ProcessId q,
                    InquiryReason why);

  /// After a write that changed log row `r` (kept for `row`): the self
  /// row changed, or any other row is stamped afresh.
  void note_log_write(ProcessId row, RowTable::RowRef r) {
    if (row == id_) {
      self_row_changed();
    } else {
      stamp_row(r);
    }
  }

  /// Re-stamps every on-behalf row when log_stamps_stale_ is set;
  /// nothing to do otherwise.
  void settle_log_stamps();

  /// Advances the echo for `reply.from` past what `reply` shipped. Called
  /// only when the reply has been merged.
  void advance_echo(const GgdMessage& reply);

  ProcessId id_;
  bool is_root_;
  /// An on-behalf log row's stamp is the revision counter at its last
  /// real write. A reply ships the non-empty rows stamped past the
  /// inquirer's echo — the confirmed frontier, never an optimistic sent
  /// mark: a lost reply leaves the echo, so the next reply ships the same
  /// rows again and the inquirer's overlay (known_behalf_) always equals
  /// what shipping every row would give.
  RowTable log_;
  /// The other three SoA row tables (shared entry columns, optionally
  /// pool-backed): the big per-process maps that dominate footprint at
  /// scale.
  RowTable history_;
  RowTable known_rows_;
  RowTable known_behalf_;
  FlatSet<ProcessId> dead_;
  /// Inquiries currently outstanding: at most one in flight per subject
  /// (cleared when any message from the subject arrives, or by the
  /// periodic sweep). Without this, every reply re-inquires every other
  /// still-missing subject and traffic grows combinatorially.
  FlatSet<ProcessId> inflight_inquiries_;
  /// Per blocked-walk subject: its row version at the last inquiry. A
  /// subject whose answer did not advance its row is not re-asked within
  /// the same round (its own pending resolution — e.g. fetching a dead
  /// holder's posthumous bundle — takes its own round trips); the sweep
  /// clears this so every round retries once.
  FlatMap<ProcessId, std::uint64_t> blocked_inquired_version_;
  /// Self-row slots whose live entry came from conservative resurrection
  /// (an announced edge fact that an existing destruction marker would
  /// have masked). Such entries are not authoritative: a root claim among
  /// them is re-verified by inquiring the subject before it can pin this
  /// process alive for ever.
  FlatSet<ProcessId> resurrected_;
  /// Per slot: the highest fact index that fed a resurrection, and the
  /// ceiling of fact indexes already refuted by the subject's own fresh
  /// reply. A stale behalf entry re-arriving after its refutation must
  /// not resurrect again (resurrect → verify → refute → resurrect would
  /// livelock); only a strictly newer fact — a genuinely new grant, whose
  /// per-slot index has advanced — may.
  FlatMap<ProcessId, std::uint64_t> resurrect_fact_index_;
  FlatMap<ProcessId, std::uint64_t> refuted_fact_ceiling_;
  /// Per subject: the row version at which a reachable-via-replica verdict
  /// was last re-verified by inquiry. A stale replica claiming a live root
  /// edge is refreshed at most once per version.
  FlatMap<ProcessId, std::uint64_t> inquired_version_;
  /// Diagnostics sink (see Observation); null when unobserved. Not
  /// serialized.
  Observation* obs_ = nullptr;
  /// Per subject: the sim time of the last direct reply from the subject
  /// itself. An unreachable verdict may rest on a live subject's replica
  /// row only when that reply arrived AFTER the verdict began pending
  /// (`pending_verify_since_`) — a replica, or a confirmation from an
  /// earlier cascade, can predate an edge creation at its subject, and
  /// combining such stale rows with newer death knowledge fabricates an
  /// "all paths dead" proof (found by scenario fuzzing; dead subjects'
  /// rows are stable and need no confirmation). Genuine garbage confirms
  /// in one inquiry round — its rows can never change again.
  FlatMap<ProcessId, SimTime> confirm_time_;
  bool pending_verify_ = false;
  SimTime pending_verify_since_ = 0;
  /// Per in-edge subject: the self-row slot index up to which the edge's
  /// DELIVERY is confirmed — the holder has messaged us (it would not,
  /// did it not hold us) or its reply listed us among its out-edges. A
  /// self-row entry records the SEND side of a reference transfer, so
  /// under message loss it can describe an edge that never materialised;
  /// an unconfirmed live claim is re-verified by inquiry (found by
  /// scenario fuzzing: a lost newborn-to-creator transfer left an orphan
  /// pinned alive by its own send record for ever). Never cleared —
  /// delivery, once confirmed at an index, is a stable fact.
  FlatMap<ProcessId, std::uint64_t> in_edge_confirmed_;
  bool forward_pending_ = false;
  /// True while `last_v_` equals the ComputeV closure of the current self
  /// row, `history_` and `dead_`: receive() sets it after closing them,
  /// and every write that changes one of the three clears it. Exact, so
  /// skipping a closure while it holds cannot change what is sent.
  bool v_current_ = false;
  /// Set by the unrestricted log() accessor (some on-behalf row may have
  /// changed without a fresh stamp) and by import_state (the adopted rows
  /// arrive unstamped): the next reply re-stamps every row.
  bool log_stamps_stale_ = false;
  /// Set while content_stamp_ versions a V a reply shipped that is not
  /// last_v_ (the cached V was stale): the next closure clears the stamp
  /// even if last_v_ stays the same.
  bool content_off_last_ = false;
  /// The stamp of a reply's content, the self row and V: cleared when the
  /// self row changes or receive() assigns a changed last_v_, drawn from
  /// the revision counter by the next reply (0: not drawn since).
  std::uint64_t content_stamp_ = 0;
  DependencyVector last_v_;
  FlatSet<ProcessId> acquaintances_;
  bool removed_ = false;
  /// ---- Delta row-relay state. Each known row's revision is its
  /// RowTable stamp, drawn from this counter whenever the stored copy
  /// actually changes. Only the counter travels in GgdProcessSnapshot:
  /// watermarks describe what THIS incarnation shipped, and after a
  /// hand-off the new site-of-record must not claim rows it never sent,
  /// so they restart from nothing on import.
  std::uint64_t rev_counter_ = 0;
  /// Per peer: the sent watermark. Revisions are monotone within this
  /// process (`stamp_row`), so "which rows has this peer been sent" is one
  /// number: attach_sync ships every row stamped past it, then advances it
  /// to the counter. The send is optimistic: a lost row is recovered by
  /// the walk that needs it, which blocks on or confirms the row's subject
  /// by inquiry, as it recovers any other lost fact.
  FlatMap<ProcessId, std::uint64_t> sent_watermark_;
  /// Per replier: the echo this process sends on its inquiries. Erased
  /// when the replier is learned dead or its row is decertified, cleared
  /// on import (the new incarnation re-learns it from a full reply).
  FlatMap<ProcessId, std::uint64_t> echo_;
};

}  // namespace cgc
