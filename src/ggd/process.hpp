// One logical process of the GGD computation — the state a global root
// keeps and the paper's algorithm (Fig. 6) over it.
//
// A GgdProcess owns:
//   * the two-dimensional log DV_i (DvLog),
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
#include <functional>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"
#include "vclock/dv_log.hpp"
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
/// mask the other (DESIGN.md §2 records the failure cases that pinned this
/// design).
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
  /// The sender's complete deferred on-behalf knowledge: for each third
  /// party q, the edge-creation entries the sender logged on q's behalf
  /// (§3.4) but has not yet delivered. Replies carry these so a walker
  /// whose verdict depends on a TRANSITIVE subject's in-edges can see
  /// grants that exist only at a forwarder — without them, a process two
  /// hops from a lazily-deferred rescue edge can prove a live structure
  /// dead (found by scenario fuzzing).
  FlatMap<ProcessId, DependencyVector> behalf_rows;
  /// Relayed in-edge rows of other processes, versioned by their subjects'
  /// own counters. Rows flooding along the cascade is what keeps the
  /// message COUNT of collecting a k-element structure at O(k) (§4's
  /// comparison): without relaying, every member must inquire every other
  /// member's row — O(k^2) messages. Under the delta relay policy this
  /// carries only rows new or changed since the receiver's confirmed
  /// frontier (O(changed), not O(population), bytes per forward); the
  /// whole-map policy ships everything, as the pre-delta protocol did.
  FlatMap<ProcessId, DependencyVector> rows;
  /// Sender-local revision stamps, one per entry of `rows` (same keys).
  /// Revisions are drawn from a per-process monotone counter and bumped
  /// whenever the stored copy of a row actually changes — subject event
  /// counters alone cannot version a row because equal-version merges
  /// (behalf overlays, conservative resurrections) change content without
  /// advancing the subject's counter. Receivers echo these stamps back as
  /// acks; they carry no protocol meaning beyond frontier bookkeeping.
  FlatMap<ProcessId, std::uint64_t> row_revs;
  /// Piggybacked frontier acks: for each subject q, the highest revision
  /// stamp of q's row that `from` has received from `to`. Valid only under
  /// `ack_epoch`; the receiver ignores acks from a stale epoch (its sync
  /// state restarted — e.g. a migration hand-off — since they were echoed).
  FlatMap<ProcessId, std::uint64_t> row_acks;
  /// The sender's current sync epoch, stamped on every message that ships
  /// rows. A receiver seeing the epoch advance discards acks it had
  /// accumulated against the previous incarnation of the sender's stamps.
  std::uint64_t sync_epoch = 0;
  /// The epoch under which `row_acks` were recorded (the ROW-sender's
  /// epoch as last observed by this message's sender).
  std::uint64_t ack_epoch = 0;
  /// Processes known to have been collected. Death is a stable global
  /// fact (a removed global root has no edges and will never be revived),
  /// so it propagates monotonically on every message; it is what clears
  /// lingering live entries of long-collected processes out of circulated
  /// histories.
  FlatSet<ProcessId> dead;
  /// Demand-driven completion (DESIGN.md §2): a process whose garbage
  /// decision is blocked on an entry it cannot vouch sends an inquiry to
  /// the entry's subject; the subject replies with its certified history
  /// (`reply`), or its hosting site replies posthumously with a death
  /// certificate. Inquiries are sent at most once per subject, so the
  /// extra traffic stays proportional to the amount of garbage.
  bool inquiry = false;
  /// Marks a message that answers an inquiry: it certifies the sender's
  /// history but must NOT be read as evidence of an edge sender -> to.
  bool reply = false;
  /// Replies carry the responder's out-edge set (its acquaintances), so an
  /// inquirer can verify a resurrected edge claim: a fresh "I do not hold
  /// you" refutes the claimed edge responder -> inquirer (and also heals a
  /// lost destruction message).
  bool has_out_edges = false;
  FlatSet<ProcessId> out_edges;

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
/// quadratic message storm. A reply that bounces past the stub's TTL
/// leaves its gate stuck only until the next periodic sweep, which
/// clears every gate anyway (that is the sweep's existing recovery job).
struct GgdProcessSnapshot {
  ProcessId id;
  bool is_root = false;
  /// Every DvLog row (self row included), increasing ProcessId order.
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
  FlatSet<ProcessId> inquired;
  FlatSet<ProcessId> inflight_inquiries;
  FlatMap<ProcessId, std::uint64_t> blocked_inquired_version;
  FlatMap<ProcessId, std::uint64_t> inquired_version;
  FlatMap<ProcessId, std::uint64_t> confirm_time;
  bool pending_verify = false;
  std::uint64_t pending_verify_since = 0;

  [[nodiscard]] bool operator==(const GgdProcessSnapshot&) const = default;
};

/// How a process selects relayed rows for an outgoing message.
/// kDelta (the default) ships only rows new or changed since the
/// destination's confirmed frontier; kWholeMap reproduces the pre-delta
/// protocol (every known row on every message) and exists for the
/// differential conformance sweep and as an operational escape hatch.
enum class RelayPolicy : std::uint8_t { kDelta, kWholeMap };

class GgdProcess {
 public:
  /// `pool` (optional) supplies bulk-owned memory for the log and the
  /// replica tables — the engine / site node passes its own so every
  /// hosted process shares one arena; null keeps plain heap backing.
  GgdProcess(ProcessId id, bool is_root, Pool* pool = nullptr)
      : id_(id),
        is_root_(is_root),
        log_(id, pool),
        history_(pool),
        known_rows_(pool),
        known_behalf_(pool) {}

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool is_root() const { return is_root_; }
  [[nodiscard]] bool removed() const { return removed_; }

  [[nodiscard]] DvLog& log() { return log_; }
  [[nodiscard]] const DvLog& log() const { return log_; }

  [[nodiscard]] const FlatSet<ProcessId>& acquaintances() const {
    return acquaintances_;
  }
  void add_acquaintance(ProcessId q) { acquaintances_.insert(q); }
  void remove_acquaintance(ProcessId q) { acquaintances_.erase(q); }

  /// The paper's `Receive(i, v, m)` (Fig. 6, reconstruction documented in
  /// DESIGN.md §2). Returns the control messages to send; whether this
  /// process decided it is garbage is observable via `removed()`.
  ///
  /// Idempotent: processing a duplicate of any previously processed message
  /// produces no state change and no output (tested, not assumed).
  [[nodiscard]] std::vector<GgdMessage> receive(
      const GgdMessage& msg, const std::function<bool(ProcessId)>& is_root,
      SimTime now = 0);

  /// ComputeV (Fig. 6): the best vector-time approximation of this
  /// process's latest log-keeping event derivable from the local log alone.
  /// Seeded with the self row (destruction markers included — they act as
  /// floors that prevent stale third-party rows from resurrecting masked
  /// entries), then closed transitively over the log's rows. Each certified
  /// history is expanded at most once per call.
  [[nodiscard]] DependencyVector compute_v() const;

  /// True iff `v` contains at least one live (non-Δ) entry of an actual
  /// root — the paper's `∃k : ¬Δ(V[k]) ∧ root(V[k])`.
  [[nodiscard]] static bool reachable_from_root(
      const DependencyVector& v, const std::function<bool(ProcessId)>& is_root);

  /// Builds the finalisation messages this process sends when it removes
  /// itself (or when the mutator side destroys one specific edge — see
  /// lazy_logkeeping). Exposed for the destructor cascade and for tests.
  /// Non-const: attaching rows advances the destination's sent frontier.
  [[nodiscard]] GgdMessage make_destruction_message(ProcessId to);

  /// Marks the process removed and returns the finalisation cascade
  /// messages (one edge-destruction message per acquaintance).
  [[nodiscard]] std::vector<GgdMessage> remove_self();

  /// Builds the answer to an inquiry: this process's current vector-time
  /// approximation, vouchers and death knowledge, flagged as a reply so
  /// the inquirer does not mistake it for an edge fact.
  [[nodiscard]] GgdMessage make_reply(ProcessId to);

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
    known_rows_.erase(q);
    // Keep the revision map aligned with known_rows_ (hard invariant): a
    // later re-adoption stamps a fresh revision from the monotone counter,
    // so peers whose frontier saw the decertified copy re-receive it.
    row_rev_.erase(q);
  }

  /// Accumulated third-party on-behalf knowledge: for subject q, the
  /// merged deferred edge-creation entries reported by any forwarder.
  /// Overlaid on q's replica row during the walk.
  [[nodiscard]] const RowTable& known_behalf() const { return known_behalf_; }

  /// The edge-precise in-edge row of `q` as last reported by `q` itself
  /// (replace-if-newer by q's own event counter). Non-exists() if unknown.
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
  /// engine has observability attached (`set_observed(true)`). Strictly
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

  /// Enables capture of walk observations in decide(). Off by default so
  /// unobserved runs pay nothing (not even the copies into walk_obs_).
  void set_observed(bool on) { observed_ = on; }

  /// Returns and invalidates the observation of the last decide() walk.
  [[nodiscard]] WalkObservation take_last_walk() {
    WalkObservation out = walk_obs_;
    walk_obs_.valid = false;
    return out;
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
      const std::function<bool(ProcessId)>& is_root,
      FlatSet<ProcessId>& missing, FlatSet<ProcessId>& root_evidence,
      FlatSet<ProcessId>& consulted) const;

  /// Runs the garbage decision (walk + removal or inquiries) without a
  /// triggering message. Used by the periodic sweep that models the
  /// ongoing local-GC / GGD activity of a deployed system (§5's answer to
  /// unbounded detection latency).
  /// `allow_inquiry` is set by the periodic sweep only: during an active
  /// cascade the missing information is already on its way in relayed
  /// rows, and inquiring for it would multiply traffic; after quiescence
  /// the sweep's inquiries are the stall-recovery mechanism.
  [[nodiscard]] std::vector<GgdMessage> decide(
      const std::function<bool(ProcessId)>& is_root, bool allow_inquiry,
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

  /// Selects the relay policy for outgoing row attachment. Switching to
  /// whole-map mid-run is always safe (it only ever ships MORE); switching
  /// to delta mid-run is too, because frontiers start empty and therefore
  /// under-claim.
  void set_relay_policy(RelayPolicy policy) { relay_policy_ = policy; }
  [[nodiscard]] RelayPolicy relay_policy() const { return relay_policy_; }

  /// Applies the piggybacked frontier acks of `msg` (acks this process's
  /// own shipped rows). Called from receive(), and explicitly by the
  /// engine/site inquiry paths — raw inquiries are answered without going
  /// through receive(), and silently dropping their acks would leave the
  /// inquirer re-shipping rows the subject already has.
  void apply_row_acks(const GgdMessage& msg);

  /// Per-sweep maintenance of the per-peer frontiers — the full-resync
  /// escape hatch. A peer whose acked frontier has lagged its sent
  /// frontier for two consecutive sweeps (sustained loss, a collected
  /// correspondent, or a one-way acquaintance edge that never acks) has
  /// its sent frontier rolled back to the acked one, so the next message
  /// to it re-ships everything unconfirmed. Bounded: re-shipping costs
  /// bytes only while messages actually flow to that peer.
  void sync_sweep_round();

  /// Delta-sync observability (tests and diagnostics).
  [[nodiscard]] std::uint64_t sync_epoch() const { return sync_epoch_; }
  [[nodiscard]] std::uint64_t row_rev(ProcessId q) const {
    auto it = row_rev_.find(q);
    return it == row_rev_.end() ? 0 : it->second;
  }
  /// Effective sent frontier for (peer, q), reconstructed from the
  /// watermark representation: the shipped-but-unconfirmed revision if
  /// one is in flight, the row's revision when it sits under the
  /// watermark (shipped and settled), and 0 for rolled-back (`forced`)
  /// or never-shipped rows.
  [[nodiscard]] std::uint64_t peer_sent_rev(ProcessId peer,
                                            ProcessId q) const {
    auto it = peer_sync_.find(peer);
    if (it == peer_sync_.end()) return 0;
    const PeerSync& ps = it->second;
    if (ps.forced.contains(q)) return 0;
    auto uit = ps.unacked.find(q);
    if (uit != ps.unacked.end()) return uit->second;
    const std::uint64_t rev = row_rev(q);
    return rev != 0 && rev <= ps.sent_watermark ? rev : 0;
  }
  /// Effective acked frontier for (peer, q): a row under the watermark
  /// with nothing in flight and no forced re-ship is exactly a confirmed
  /// one (acks erase the in-flight entry; rollback forces instead).
  [[nodiscard]] std::uint64_t peer_acked_rev(ProcessId peer,
                                             ProcessId q) const {
    auto it = peer_sync_.find(peer);
    if (it == peer_sync_.end()) return 0;
    const PeerSync& ps = it->second;
    if (ps.forced.contains(q) || ps.unacked.contains(q)) return 0;
    const std::uint64_t rev = row_rev(q);
    return rev != 0 && rev <= ps.sent_watermark ? rev : 0;
  }
  /// The full replica-row map, materialized (differential conformance
  /// compares the converged row state of delta vs whole-map runs).
  [[nodiscard]] FlatMap<ProcessId, DependencyVector> known_rows() const {
    FlatMap<ProcessId, DependencyVector> out;
    for (const auto& [q, row] : known_rows_.rows()) {
      out.emplace(q, row);
    }
    return out;
  }

  /// Merges announced edge facts delivered outside a regular message —
  /// the engine feeds an inquiry's piggybacked behalf row through this,
  /// so a deferred grant reaches its subject for adjudication (resurrect,
  /// lease-verify or refute) before the subject's reply is built.
  void absorb_edge_facts(const DependencyVector& facts, ProcessId from) {
    merge_edge_facts(facts, /*skip=*/from);
  }

  /// Certified causal histories of other processes, keyed by sender. Kept
  /// separate from the on-behalf rows in `log_`: the self row and the
  /// behalf rows hold *edge facts* of the global root graph; this table
  /// holds *claims about reachability history* received from their
  /// subjects.
  [[nodiscard]] const RowTable& history() const { return history_; }

  /// Where this process's bytes actually live — capacity-based, so the
  /// numbers add up to what the allocators hold, not just what is
  /// filled. The memory diet steers by this attribution (summed across
  /// the engine by GgdEngine::storage_footprint).
  struct StorageFootprint {
    std::size_t log_bytes = 0;      ///< DvLog: self + on-behalf rows
    std::size_t history_bytes = 0;  ///< certified peer histories
    std::size_t known_bytes = 0;    ///< replica rows of peers
    std::size_t behalf_bytes = 0;   ///< forwarded on-behalf rows
    std::size_t relay_bytes = 0;    ///< delta-relay frontiers + acks
    std::size_t gate_bytes = 0;     ///< verdict-gating side tables
    [[nodiscard]] std::size_t total() const {
      return log_bytes + history_bytes + known_bytes + behalf_bytes +
             relay_bytes + gate_bytes;
    }
    StorageFootprint& operator+=(const StorageFootprint& o) {
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
  /// and the delta-relay frontier state (attach_sync ships replica rows
  /// to peers behind the frontier) — so that remainder is kept but
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

 private:
 public:
  [[nodiscard]] const FlatSet<ProcessId>& dead() const { return dead_; }

 private:
  /// Merges announced edge facts (bundled or per-message behalf entries)
  /// into the self row with conservative resurrection of entries that an
  /// older destruction marker would otherwise mask.
  void merge_edge_facts(const DependencyVector& facts, ProcessId skip);

  /// Per-peer delta-sync bookkeeping, watermark form. Row revisions are
  /// globally monotone within this process (`bump_rev`), so "which rows
  /// has this peer been sent" compresses from a per-row map to a single
  /// watermark: every row revised at or below it has been shipped (the
  /// attach loop ships ALL rows past the frontier, then advances the
  /// watermark to the counter). The exceptions are small and transient:
  /// `unacked` holds rows shipped but not yet ack-confirmed (erased as
  /// ack echoes arrive), and `forced` holds rows the full-resync escape
  /// hatch rolled back for re-shipping. The per-row `sent`/`acked` maps
  /// this replaces grew to every-row-times-every-peer at steady state —
  /// the delta relay's +43% peak-RSS bill at the large bench config.
  struct PeerSync {
    std::uint64_t sent_watermark = 0;
    FlatMap<ProcessId, std::uint64_t> unacked;
    FlatSet<ProcessId> forced;
    std::uint8_t stale_rounds = 0;
  };

  /// Stamps a fresh revision on q's stored row. The counter is globally
  /// monotone within this process, so a re-adopted row (decertify, death
  /// purge, then fresh arrival) always out-revisions every stamp any peer
  /// ever saw — no ABA on the frontier.
  void bump_rev(ProcessId q) { row_rev_[q] = ++rev_counter_; }

  /// Stamps epoch + pending acks onto an outgoing message and, when
  /// `include_rows` is set, attaches the row delta (or the whole map,
  /// per policy) for msg.to. Inquiries pass include_rows=false: the
  /// engine answers them without running receive() at the target, so
  /// attached rows would be wasted bytes yet still counted as sent.
  void attach_sync(GgdMessage& msg, bool include_rows);

  /// Appends one inquiry to `q` to `out`: the deferred grants held for q
  /// ride along (q adjudicates them before its reply certifies anything),
  /// plus pending acks but no rows. Counts `why` when observed.
  void emit_inquiry(std::vector<GgdMessage>& out, ProcessId q,
                    InquiryReason why);

  /// Accumulates acks for the rows `msg` shipped, to ride on the next
  /// message addressed to msg.from.
  void record_row_acks(const GgdMessage& msg);

  ProcessId id_;
  bool is_root_;
  DvLog log_;
  /// SoA row tables (shared entry columns, optionally pool-backed): the
  /// three big per-process maps that dominate footprint at scale.
  RowTable history_;
  RowTable known_rows_;
  RowTable known_behalf_;
  FlatSet<ProcessId> dead_;
  FlatSet<ProcessId> inquired_;
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
  /// Observability capture (see WalkObservation). Not serialized.
  bool observed_ = false;
  WalkObservation walk_obs_;
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
  DependencyVector last_v_;
  FlatSet<ProcessId> acquaintances_;
  bool removed_ = false;
  /// ---- Delta row-relay state (NOT serialized in GgdProcessSnapshot).
  /// Frontiers describe what THIS incarnation shipped; after a hand-off
  /// the new site-of-record must not claim rows it never sent, so the
  /// state is rebuilt from scratch on import under a fresh epoch.
  /// Invariant: keys(row_rev_) == keys(known_rows_).
  FlatMap<ProcessId, std::uint64_t> row_rev_;
  std::uint64_t rev_counter_ = 0;
  FlatMap<ProcessId, PeerSync> peer_sync_;
  /// Acks accumulated per row-sender, flushed onto the next message to
  /// that sender; ack_epoch_pending_ remembers the sender epoch they were
  /// recorded under.
  FlatMap<ProcessId, FlatMap<ProcessId, std::uint64_t>> ack_pending_;
  FlatMap<ProcessId, std::uint64_t> ack_epoch_pending_;
  std::uint64_t sync_epoch_ = 0;
  RelayPolicy relay_policy_ = RelayPolicy::kDelta;
};

}  // namespace cgc
