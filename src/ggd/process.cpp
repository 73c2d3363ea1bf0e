#include "ggd/process.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/scratch.hpp"

namespace cgc {

namespace {

/// Replace-if-newer merge of a reported self row, versioned by the
/// subject's own event counter (strictly monotone at the subject). An
/// older report never clobbers a newer one — duplication and reordering
/// are harmless (robustness, §5). Returns the stored row if it actually
/// changed, which is what drives the delta-relay revision stamp: the
/// subject's counter alone cannot be the version because an equal-index
/// merge can change content without advancing it.
std::optional<RowTable::RowRef> adopt_row(RowTable& rows, ProcessId subject,
                                          const DependencyVector& row) {
  if (!rows.contains(subject)) {
    return rows.row(subject) = row;
  }
  RowTable::RowRef stored_row = rows.row(subject);
  const std::uint64_t stored = stored_row.get(subject).index();
  const std::uint64_t incoming = row.get(subject).index();
  if (incoming > stored) {
    return stored_row = row;
  }
  if (incoming == stored) {
    // Same version: merge conservatively (a destruction marker at equal
    // index wins inside Timestamp::merge).
    return stored_row.merge(row) ? std::optional(stored_row) : std::nullopt;
  }
  return std::nullopt;
}

/// Per-thread working sets of the per-message closure, walk and decision.
/// Each user takes what it needs through a ScratchUse, so capacity up to
/// kScratchRetain carries over from message to message and a warm thread
/// allocates nothing here. Per
/// thread rather than per process: the threaded runtime runs GgdProcess
/// code on several workers at once, and a per-process copy would be
/// resident state the memory diet has to pay for.
struct Scratch {
  // compute_v(): V as two parallel sorted arrays, ids and RowTable-packed
  // timestamps. A history row that raises V is merged into the next_*
  // pair, which then swaps in.
  std::vector<ProcessId> closure_stack;
  FlatSet<ProcessId> expanded;
  std::vector<ProcessId> v_ids;
  std::vector<std::uint64_t> v_ts;
  std::vector<ProcessId> next_ids;
  std::vector<std::uint64_t> next_ts;
  // walk_to_root(): (process, subject of the row that contributed it)
  std::vector<std::pair<ProcessId, ProcessId>> walk_stack;
  FlatSet<ProcessId> visited;
  // decide()
  FlatSet<ProcessId> missing;
  FlatSet<ProcessId> root_evidence;
  FlatSet<ProcessId> consulted;
  FlatSet<ProcessId> unconfirmed;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Calls fn(id, ts) for every id present in any of the three rows, in
/// increasing id order, with ts the Timestamp::merge of the row entries:
/// the component-wise merge of the rows, without materializing it.
template <typename Fn>
void for_each_merged(const RowTable::RowView& a, const RowTable::RowView& b,
                     const RowTable::RowView& c, Fn&& fn) {
  if (b.empty() && c.empty()) {
    for (const auto& [q, ts] : a) {
      fn(q, ts);
    }
    return;
  }
  struct Cursor {
    RowTable::EntryIterator it;
    RowTable::EntryIterator end;
  };
  Cursor rows[] = {{a.begin(), a.end()}, {b.begin(), b.end()},
                   {c.begin(), c.end()}};
  for (;;) {
    const Cursor* lowest = nullptr;
    for (const Cursor& r : rows) {
      if (r.it != r.end &&
          (lowest == nullptr || (*r.it).first < (*lowest->it).first)) {
        lowest = &r;
      }
    }
    if (lowest == nullptr) {
      return;
    }
    const ProcessId q = (*lowest->it).first;
    Timestamp ts;
    for (Cursor& r : rows) {
      if (r.it != r.end && (*r.it).first == q) {
        ts = Timestamp::merge(ts, (*r.it).second);
        ++r.it;
      }
    }
    fn(q, ts);
  }
}

/// ComputeV's closure (GgdProcess::compute_v) over the given state, left
/// in s.v_ids / s.v_ts, which must be empty on entry.
///
/// Seeded with the self row *including* destruction markers: a marker
/// E(t) occupies its slot with numeric index t, so the closure can only
/// replace it with a strictly newer creation entry — this is what the
/// paper's figures show circulating. (The garbage decision itself uses the
/// edge-precise walk, not this aggregate.)
///
/// Worklist closure rather than the paper's literal recursion: expanding
/// each known process's history exactly once computes the same transitive
/// merge while terminating on cyclic global root graphs — the structures
/// this algorithm exists to collect.
void close_v(ProcessId self, const RowTable::RowView& self_row,
             const RowTable& history, const FlatSet<ProcessId>& dead,
             Scratch& s) {
  std::vector<ProcessId>& ids = s.v_ids;
  std::vector<std::uint64_t>& ts = s.v_ts;
  const ScratchUse use(s.closure_stack, s.expanded, s.next_ids, s.next_ts);
  std::vector<ProcessId>& stack = s.closure_stack;
  const auto live = [](std::uint64_t packed) {
    return !RowTable::unpack(packed).is_delta();
  };
  const ProcessId* seed_ids = self_row.ids();
  const std::uint64_t* seed_ts = self_row.packed();
  for (std::size_t k = 0; k < self_row.size(); ++k) {
    // Self-row entries of dead processes are elided: a collected process
    // has no outgoing edges, so the edge it once held to us is gone even
    // if its destruction message was lost.
    if (seed_ids[k] == self || !dead.contains(seed_ids[k])) {
      ids.push_back(seed_ids[k]);
      ts.push_back(seed_ts[k]);
    }
  }
  s.expanded.insert(self);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] != self && live(ts[k])) {
      stack.push_back(ids[k]);
    }
  }
  while (!stack.empty()) {
    const ProcessId p = stack.back();
    stack.pop_back();
    if (!s.expanded.insert(p).second) {
      continue;
    }
    // Merge-join of p's history row against V, both in increasing id
    // order. Nothing is copied until the first rise; from then on the
    // untouched stretches of V move to next_* in bulk between rises.
    const RowTable::RowView row = history.row(p);
    const ProcessId* row_ids = row.ids();
    const std::uint64_t* row_ts = row.packed();
    const std::size_t n = row.size();
    const std::size_t m = ids.size();
    std::size_t i = 0;       // V cursor
    std::size_t copied = 0;  // V entries already in next_*, once rising
    bool rose = false;
    for (std::size_t k = 0; k < n; ++k) {
      const ProcessId q = row_ids[k];
      const std::uint64_t alpha = row_ts[k];
      if (q == p || q == self || !live(alpha)) {
        // Destruction markers inside a history describe edges of *that*
        // process, not ours.
        continue;
      }
      while (i < m && ids[i] < q) {
        ++i;
      }
      const bool present = i < m && ids[i] == q;
      // Only a strictly newer index changes V, and every live entry of V
      // was pushed when it was seeded or raised: an equal index has
      // nothing left to expand. V never holds an entry of a dead process,
      // so only a rise needs the death check (dead entries contribute
      // nothing).
      if ((present && (alpha >> 1) <= (ts[i] >> 1)) || dead.contains(q)) {
        continue;
      }
      if (!rose) {
        rose = true;
        s.next_ids.clear();
        s.next_ts.clear();
      }
      s.next_ids.insert(s.next_ids.end(), ids.begin() + copied,
                        ids.begin() + i);
      s.next_ts.insert(s.next_ts.end(), ts.begin() + copied, ts.begin() + i);
      s.next_ids.push_back(q);
      s.next_ts.push_back(alpha);
      copied = present ? i + 1 : i;
      stack.push_back(q);
    }
    if (rose) {
      s.next_ids.insert(s.next_ids.end(), ids.begin() + copied, ids.end());
      s.next_ts.insert(s.next_ts.end(), ts.begin() + copied, ts.end());
      ids.swap(s.next_ids);
      ts.swap(s.next_ts);
    }
  }
}

/// Whether `v` holds exactly the closure close_v() left in `s`.
bool equals_v(const DependencyVector& v, const Scratch& s) {
  if (v.size() != s.v_ids.size()) {
    return false;
  }
  std::size_t k = 0;
  for (const auto& [q, ts] : v.entries()) {
    if (q != s.v_ids[k] || RowTable::pack(ts) != s.v_ts[k]) {
      return false;
    }
    ++k;
  }
  return true;
}

/// Overwrites `v` with the closure close_v() left in `s`, reusing its
/// capacity.
void assign_v(DependencyVector& v, const Scratch& s) {
  v.clear();
  v.reserve(s.v_ids.size());
  for (std::size_t k = 0; k < s.v_ids.size(); ++k) {
    v.set(s.v_ids[k], RowTable::unpack(s.v_ts[k]));
  }
}

}  // namespace

std::vector<GgdMessage> GgdProcess::receive(const GgdMessage& msg,
                                            RootPredicate is_root,
                                            SimTime now) {
  CGC_CHECK(msg.to == id_);
  if (removed_) {
    // Late or duplicated messages to an already-collected root are ignored;
    // idempotence of removal is part of the robustness claim (§5).
    return {};
  }
  const ProcessId m = msg.from;
  const Timestamp vm = msg.v.get(m);
  inflight_inquiries_.erase(m);

  // Death is a stable global fact and is relayed monotonically. State kept
  // about a collected process will never be consulted again.
  for (ProcessId q : msg.dead) {
    if (q != id_ && dead_.insert(q).second) {
      history_.erase(q);
      known_rows_.erase(q);
      known_behalf_.erase(q);
      echo_.erase(q);
      sent_watermark_.erase(q);
      v_current_ = false;
    }
  }
  // The sender's edge-precise in-edge row. An *empty* row is still an
  // answer ("I have no in-edges") and must be stored, or a blocked walk
  // re-blocks for ever on an eventless subject. Rows of dead processes are
  // not resurrected. A current reply carries none: this process already
  // merged the sender's row as it stands. (Had it decertified the row
  // since its inquiry, the row stays missing until a walk that needs it
  // inquires again, with the empty echo decertify_row left.)
  if (!dead_.contains(m) && !msg.current) {
    if (auto adopted = adopt_row(known_rows_, m, msg.self_row)) {
      stamp_row(*adopted);
    }
  }
  // Relayed rows (versioned facts, replace-if-newer).
  for (const auto& [q, row] : msg.rows) {
    if (q != id_ && q != m && !dead_.contains(q)) {
      if (auto adopted = adopt_row(known_rows_, q, row)) {
        stamp_row(*adopted);
      }
    }
  }

  // Deferred third-party edge-creation entries logged on our behalf are
  // merged on every message, not only with the final destruction bundle.
  merge_edge_facts(msg.behalf, /*skip=*/m);
  // Deferred knowledge about THIRD parties accumulates for the walk's
  // overlay (it reaches its subjects through their own bundles later).
  for (const auto& [q, row] : msg.behalf_rows) {
    if (q != id_ && !dead_.contains(q)) {
      known_behalf_.row(q).merge(row);
    }
  }
  if (msg.reply && !dead_.contains(m)) {
    advance_echo(msg);
  }

  const Timestamp known_m = log_.row(id_).get(m);
  if (msg.reply) {
    // An inquiry answer: certifies the sender's history and row without
    // implying any edge m -> i. The row adopted above (or, on a current
    // reply, held already) is the sender's own fresh account as of now —
    // record the arrival time so an unreachable verdict that began
    // pending earlier may rest on it.
    confirm_time_[m] = now;
    if (!msg.current && history_.row(m).merge(msg.v)) {
      v_current_ = false;
    }
    if (msg.holds_receiver) {
      // The responder vouches that it currently holds us.
      confirm_in_edge(m);
    } else {
      const Timestamp cur = log_.row(id_).get(m);
      if (!cur.is_delta()) {
        // Fresh refutation: the responder does not hold an edge to us, so
        // the live claim for slot m — resurrected or left over from a lost
        // destruction message — is masked. Any forwarder still racing a
        // reference of us towards m remains a live slot of its own and
        // keeps blocking removal until its atomic bundle re-announces the
        // edge, which re-resurrects and re-verifies.
        const Timestamp reported = msg.current ? known_row(m).get(m)
                                               : msg.self_row.get(m);
        const std::uint64_t version = std::max(cur.index(), reported.index());
        set_self_entry(m, Timestamp::destruction(version));
        resurrected_.erase(m);
        // Every fact index seen so far for this slot is hereby refuted:
        // only a strictly newer grant may resurrect it again.
        auto seen = resurrect_fact_index_.find(m);
        if (seen != resurrect_fact_index_.end()) {
          auto& ceiling = refuted_fact_ceiling_[m];
          ceiling = std::max(ceiling, seen->second);
        }
      }
    }
  } else if (vm.destroyed() && vm.supersedes(known_m)) {
    // Edge-destruction log-keeping event at this process (Fig. 6, first
    // branch): a new local event, then the whole message vector merges into
    // the self row. A destruction message carries only edge facts — the
    // sender's destruction marker plus any deferred third-party
    // edge-creation entries bundled for atomic delivery (§3.4) — so every
    // slot of `msg.v` legitimately describes an incoming edge of this
    // process. The marker masks every creation entry for `m` with index
    // <= its own.
    set_self_entry(id_, Timestamp::creation(own_timestamp().index() + 1));
    set_self_entry(m, Timestamp::merge(known_m, vm));
    resurrected_.erase(m);
    merge_edge_facts(msg.v, /*skip=*/m);
  } else if (vm.destroyed()) {
    // Stale destruction (a duplicate, a reordered copy, or a sweep
    // re-emission whose marker no longer supersedes): the marker itself
    // is old news, but the bundled deferred edge-creation entries are
    // edge facts that must still land — dropping them can lose the ONLY
    // record of a lazily-deferred in-edge when its forwarder has since
    // been collected (found by scenario fuzzing).
    set_self_entry(m, Timestamp::merge(known_m, vm));
    merge_edge_facts(msg.v, /*skip=*/m);
  } else {
    // Vector-propagation message: slot `m` is the edge fact (the sender
    // holds an edge m -> i, or it would not be forwarding its vector
    // here); the vector as a whole is m's own account of its causal
    // history and goes into the history map, NOT into the self row —
    // conflating the two lets transitive entries masquerade as incoming
    // edges.
    if (vm.supersedes(known_m)) {
      resurrected_.erase(m);
    }
    set_self_entry(m, Timestamp::merge(known_m, vm));
    if (history_.row(m).merge(msg.v)) {
      v_current_ = false;
    }
  }

  if (dead_.contains(m)) {
    // Hearing from a collected process at all means this is its final
    // account (a posthumous bundle or certificate): whatever index races
    // left in the slot, the edge is gone — death is stable. Without this,
    // a live slot raced above the corpse's final event index blocks the
    // walk on the same dead subject for ever.
    const Timestamp cur = log_.row(id_).get(m);
    if (!cur.is_delta()) {
      set_self_entry(m, Timestamp::destruction(cur.index()));
      resurrected_.erase(m);
    }
  }

  if (!msg.reply && !vm.is_delta() && !vm.destroyed()) {
    // A live non-reply message from m is only sent along a live edge
    // m -> us (vector forwards go to acquaintances): m holds us right
    // now, so whatever the slot's current state is, its delivery is
    // confirmed. A destruction (vm destroyed) confirms nothing.
    confirm_in_edge(m);
  }

  if (!v_current_) {
    // Only when a merge above changed the closure's inputs: otherwise V
    // would come out equal to last_v_ and there is nothing to circulate.
    Scratch& s = scratch();
    const ScratchUse use(s.v_ids, s.v_ts);
    close_v(id_, self_row(), history_, dead_, s);
    if (obs_ != nullptr) {
      ++obs_->v_closures;
    }
    const bool changed = !equals_v(last_v_, s);
    if (changed) {
      // The approximation improved: it must circulate along the out-bound
      // edges of the global root graph (Fig. 6 / §3.3 step 3). The engine
      // coalesces the actual sends (one consolidated vector per process
      // per tick) so a burst of partial improvements does not multiply
      // traffic.
      assign_v(last_v_, s);
      forward_pending_ = true;
    }
    if (changed || content_off_last_) {
      // The V replies ship from now on is not the one last stamped.
      content_stamp_ = 0;
      content_off_last_ = false;
    }
    v_current_ = true;
  }

  if (!is_root_ && msg.condemned.contains(id_)) {
    // A cascade whose condemned set names us carries a confirmed
    // unreachable verdict that covers us: no walk, no confirmation round.
    return remove_self(msg.condemned);
  }

  // Garbage decision: edge-precise reachability over the replicated
  // in-edge rows. The aggregate vector time V cannot be used on its own —
  // a destruction marker for one edge of q would mask a live entry for a
  // different edge of q (see GgdMessage::self_row) — but it remains the
  // quantity the paper's figures show and what triggers propagation above.
  //
  // Inquiries ride only on replies: during an active cascade the missing
  // information is already on its way in relayed rows, but a reply means
  // this process is mid-completion of a blocked decision — a gap the
  // reply's row just uncovered must be chased NOW (demand-driven
  // completion), or a discovery chain of depth d would need d sweep
  // rounds to drain.
  return decide(is_root, /*allow_inquiry=*/msg.reply, now);
}

std::vector<GgdMessage> GgdProcess::take_forwards() {
  forward_pending_ = false;
  std::vector<GgdMessage> out;
  if (removed_) {
    return out;
  }
  out.reserve(acquaintances_.size());
  for (ProcessId k : acquaintances_) {
    GgdMessage fwd;
    fwd.from = id_;
    fwd.to = k;
    fwd.v = last_v_;
    fwd.self_row = self_row();
    fwd.behalf = std::as_const(log_).row(k);
    fwd.dead = dead_;
    attach_sync(fwd);
    out.push_back(std::move(fwd));
  }
  return out;
}

std::vector<GgdMessage> GgdProcess::decide(RootPredicate is_root,
                                           bool allow_inquiry, SimTime now) {
  std::vector<GgdMessage> out;
  if (is_root_ || removed_) {
    return out;
  }
  Scratch& s = scratch();
  const ScratchUse use(s.missing, s.root_evidence, s.consulted,
                       s.unconfirmed);
  FlatSet<ProcessId>& missing = s.missing;
  FlatSet<ProcessId>& root_evidence = s.root_evidence;
  FlatSet<ProcessId>& consulted = s.consulted;
  const WalkResult res = walk_to_root(is_root, missing, root_evidence,
                                      consulted);
  if (obs_ != nullptr) {
    WalkObservation& w = obs_->walk;
    w.result = res;
    w.consulted = static_cast<std::uint32_t>(consulted.size());
    w.missing = static_cast<std::uint32_t>(missing.size());
    w.first_missing = missing.empty() ? ProcessId{} : *missing.begin();
    w.inquiries = {};
    w.valid = true;
  }
  if (!allow_inquiry && res != WalkResult::kUnreachable) {
    return out;
  }
  if (res != WalkResult::kUnreachable) {
    // Any non-unreachable verdict closes the pending verification epoch:
    // the next unreachable verdict must gather confirmations that
    // postdate ITS OWN walk, not replies from an earlier suspicion that
    // the topology has since overtaken.
    pending_verify_ = false;
  }
  if (res == WalkResult::kReachable) {
    // A live-root verdict resting on replicated rows may be stale
    // ANYWHERE along the evidence chain, not only at the root-entry
    // supplier: a middle link's replica can still claim an edge its
    // subject has since lost (e.g. the subject died and its final bundle
    // was dropped — found by scenario fuzzing). Re-verify every consulted
    // replica at most once per version: a fresh reply (or a posthumous
    // bundle) either confirms genuine liveness or updates the row and
    // lets the collection proceed.
    if (!root_evidence.empty()) {
      root_evidence.insert(consulted.begin(), consulted.end());
    }
    for (ProcessId q : root_evidence) {
      const RowTable::RowView stored = std::as_const(known_rows_).row(q);
      const std::uint64_t version =
          !stored.exists()
              ? std::max<std::uint64_t>(1, log_.row(id_).get(q).index())
              : stored.get(q).index();
      auto [vit, fresh] = inquired_version_.emplace(q, version);
      if (fresh || vit->second < version) {
        vit->second = version;
        emit_inquiry(out, q, InquiryReason::kReverify);
      }
    }
  } else if (res == WalkResult::kUnreachable) {
    // No live path of edges from any actual root — but a replica row of a
    // LIVE subject can be stale (missing an edge created at the subject
    // after the replica was relayed), so before acting on it the verdict
    // must be confirmed by a fresh reply from each such subject at its
    // current version. Dead subjects' rows are final and exempt. Genuine
    // garbage confirms trivially — a garbage subject's row can never gain
    // an edge, so its reply echoes the same version and the re-decision
    // triggered by the reply finalises the removal.
    if (!pending_verify_) {
      // The verdict begins pending NOW: only replies arriving after this
      // instant certify that the consulted rows are current, not relics
      // of an earlier cascade the mutator has since overtaken.
      pending_verify_ = true;
      pending_verify_since_ = now;
    }
    FlatSet<ProcessId>& unconfirmed = s.unconfirmed;
    for (ProcessId q : consulted) {
      if (!known_rows_.contains(q)) {
        continue;  // row vanished (death learned mid-walk): nothing to ask
      }
      auto cit = confirm_time_.find(q);
      if (cit == confirm_time_.end() || cit->second <= pending_verify_since_) {
        unconfirmed.insert(q);
      }
    }
    if (unconfirmed.empty()) {
      // Garbage being a stable property (§5), the decision is final.
      // Finalise by cascading edge-destruction messages to all successors.
      // Every consulted subject reaches us along the in-edges the walk
      // followed, and its row is confirmed, so the verdict condemns each
      // of them too: the cascade carries the set.
      pending_verify_ = false;
      std::vector<GgdMessage> fin = remove_self(consulted);
      out.insert(out.end(), std::make_move_iterator(fin.begin()),
                 std::make_move_iterator(fin.end()));
    } else {
      for (ProcessId q : unconfirmed) {
        if (inflight_inquiries_.insert(q).second) {
          emit_inquiry(out, q, InquiryReason::kConfirm);
        }
      }
    }
  } else {
    // Demand-driven completion: ask each unknown transitive predecessor
    // for its row. Its reply — or its hosting site's posthumous death
    // certificate — eventually unblocks structures whose only informants
    // have long quiesced. Inquiry traffic is proportional to the blocked
    // structure, preserving the no-consensus scalability story.
    for (ProcessId q : missing) {
      // At most one outstanding inquiry per subject, and at most one per
      // row version per round: a reply that did not advance the subject's
      // row will not advance it if re-asked immediately either.
      const std::uint64_t version =
          std::as_const(known_rows_).row(q).get(q).index();
      auto [vit, fresh] = blocked_inquired_version_.emplace(q, version);
      if (!fresh && vit->second >= version) {
        continue;
      }
      vit->second = version;
      if (inflight_inquiries_.insert(q).second) {
        emit_inquiry(out, q, InquiryReason::kBlocked);
      }
    }
  }
  if (res != WalkResult::kUnreachable && allow_inquiry) {
    // Lease verification: every live in-edge claim whose delivery was
    // never confirmed is asked about once (per slot index — a fresh grant
    // re-verifies). Under loss a send-recorded edge may never have
    // materialised, and if the phantom holder is itself live, the walk
    // above finds a genuine root path THROUGH it and would pin this
    // process alive for ever; the holder's reply either vouches for the
    // edge (confirming the lease) or refutes it (masking the slot).
    for (const auto& [q, ts] : log_.row(id_).entries()) {
      if (q == id_ || ts.is_delta() || ts.destroyed() || dead_.contains(q)) {
        continue;
      }
      auto cit = in_edge_confirmed_.find(q);
      if (cit != in_edge_confirmed_.end() && cit->second >= ts.index()) {
        continue;
      }
      if (inflight_inquiries_.insert(q).second) {
        emit_inquiry(out, q, InquiryReason::kLease);
      }
    }
  }
  return out;
}

void GgdProcess::emit_inquiry(std::vector<GgdMessage>& out, ProcessId q,
                              InquiryReason why) {
  GgdMessage inq;
  inq.from = id_;
  inq.to = q;
  inq.inquiry = true;
  // Deferred grants we hold for q ride along: q must adjudicate them (a
  // regrant below an old destruction marker resurrects and lease-verifies
  // at q) before its reply can certify an all-dead in-edge row.
  inq.behalf = std::as_const(log_).row(q);
  inq.echo = echo(q);
  inq.need_rows = why == InquiryReason::kBlocked;
  out.push_back(std::move(inq));
  if (obs_ != nullptr) {
    ++obs_->walk.inquiries[static_cast<std::size_t>(why)];
  }
}

void GgdProcess::reset_inquiry_gates() {
  // Every gate ages out each sweep round: replicas can go stale without
  // their version advancing (resurrections and refutation masks do not
  // bump the owner's counter), so reachable-evidence chains must be
  // re-verifiable every round — the sweep's traffic is the price of
  // recovering from lost finalisation bundles.
  inquired_version_.clear();
  inflight_inquiries_.clear();
  blocked_inquired_version_.clear();
  // Confirmations age out each sweep round: a subject's row may have
  // advanced without reaching us, so stale certificates must not carry an
  // unreachable verdict across rounds.
  confirm_time_.clear();
  pending_verify_ = false;
}

void GgdProcess::attach_sync(GgdMessage& msg) {
  // A collected peer reads no rows, and a watermark kept for it would
  // never be read again.
  if (dead_.contains(msg.to)) {
    return;
  }
  // Delta selection: ship only rows revised past what this destination
  // has been sent. The watermark advances optimistically at build time
  // (every row at or below the counter either ships right here or shipped
  // before); a lost row costs latency, never a verdict, because the walk
  // that needs it inquires its subject.
  std::uint64_t& sent = sent_watermark_[msg.to];
  for (const auto& [q, row] : known_rows_.rows()) {
    if (q == msg.to) {
      continue;  // the receiver ignores a relayed copy of its own row
    }
    const std::uint64_t rev = row.stamp();
    CGC_CHECK(rev != 0);
    if (rev > sent) {
      msg.rows.emplace(q, row);
      msg.row_revs.emplace(q, rev);
    }
  }
  sent = rev_counter_;
}

void GgdProcess::settle_log_stamps() {
  if (!log_stamps_stale_) {
    return;
  }
  log_stamps_stale_ = false;
  for (const auto& [q, row] : log_.rows()) {
    if (q != id_ && !row.empty()) {
      stamp_row(log_.row(q));
    }
  }
}

void GgdProcess::advance_echo(const GgdMessage& reply) {
  if (reply.reply_stamp == 0) {
    return;
  }
  // Duplicated or reordered replies leave the highest echo: everything at
  // or below it was merged when that reply was. A migrated replier
  // re-stamps what it ships above every stamp it drew before, so a late
  // reply of its earlier incarnation never lifts the echo past new
  // content.
  auto [it, fresh] = echo_.emplace(reply.from, reply.reply_stamp);
  if (!fresh) {
    it->second = std::max(it->second, reply.reply_stamp);
  }
}

void GgdProcess::merge_edge_facts(const DependencyVector& facts,
                                  ProcessId skip) {
  for (const auto& [q, ts] : facts.entries()) {
    if (q == skip || q == id_ || ts.is_delta() || dead_.contains(q)) {
      // Dead holders never come back: a stale fact entry must not
      // resurrect the slot of a collected process (its posthumous bundle
      // would then re-arrive and loop the resurrect/refute cycle).
      continue;
    }
    const Timestamp cur = log_.row(id_).get(q);
    if (cur.destroyed() && cur.index() >= ts.index()) {
      auto ceiling = refuted_fact_ceiling_.find(q);
      if (ceiling != refuted_fact_ceiling_.end() &&
          ts.index() <= ceiling->second) {
        // This very fact (or an older one) was already refuted by q's own
        // fresh reply: re-resurrecting it would loop the verify cycle.
        continue;
      }
      // Conservative resurrection: the on-behalf entry announces an edge
      // q -> i, but third parties assign indexes from stale views, so a
      // *re-created* edge can arrive numerically below an older
      // destruction marker for a previous edge from the same process.
      // Masking it would lose a live path (the rescue race). Keep it
      // alive just above the marker: if the edge is in fact gone, q's own
      // next destruction (true counter, strictly newer) or q's death
      // certificate re-masks it — genuine garbage is collected, merely
      // later.
      set_self_entry(q, Timestamp::creation(cur.index() + 1));
      resurrected_.insert(q);
      auto& seen = resurrect_fact_index_[q];
      seen = std::max(seen, ts.index());
    } else {
      const Timestamp merged = Timestamp::merge(cur, ts);
      set_self_entry(q, merged);
      if (merged.supersedes(cur)) {
        // Genuinely newer information supersedes a resurrection.
        resurrected_.erase(q);
      }
    }
  }
}

Timestamp GgdProcess::increment_log(ProcessId row, ProcessId slot) {
  RowTable::RowRef r = log_.row(row);
  const Timestamp next = r.increment(slot);
  note_log_write(row, r);
  return next;
}

void GgdProcess::merge_log_entry(ProcessId row, ProcessId slot,
                                 Timestamp ts) {
  RowTable::RowRef r = log_.row(row);
  const Timestamp old = r.get(slot);
  const Timestamp merged = Timestamp::merge(old, ts);
  if (merged == old) {
    return;
  }
  r.set(slot, merged);
  note_log_write(row, r);
}

void GgdProcess::erase_log_row(ProcessId row) {
  log_.erase(row);
  if (row == id_) {
    self_row_changed();
  }
}

void GgdProcess::set_self_entry(ProcessId q, Timestamp ts) {
  RowTable::RowRef self = log_.row(id_);
  if (!(self.get(q) == ts)) {
    self.set(q, ts);
    self_row_changed();
  }
}

void GgdProcess::confirm_in_edge(ProcessId m) {
  const Timestamp cur = log_.row(id_).get(m);
  if (!cur.is_delta() && !cur.destroyed()) {
    in_edge_confirmed_[m] = std::max(in_edge_confirmed_[m], cur.index());
  }
}

GgdProcess::WalkResult GgdProcess::walk_to_root(
    RootPredicate is_root, FlatSet<ProcessId>& missing,
    FlatSet<ProcessId>& root_evidence, FlatSet<ProcessId>& consulted) const {
  Scratch& s = scratch();
  const ScratchUse use(s.visited, s.walk_stack);
  FlatSet<ProcessId>& visited = s.visited;
  visited.insert(id_);
  // Stack of (process, subject of the row that contributed it); the
  // invalid id marks entries contributed by our own self row.
  std::vector<std::pair<ProcessId, ProcessId>>& stack = s.walk_stack;
  bool reachable = false;
  bool blocked = false;
  auto push_live_slot = [&](ProcessId q, Timestamp ts, ProcessId source) {
    if (ts.is_delta() || visited.contains(q)) {
      return;
    }
    if (dead_.contains(q)) {
      // A LIVE slot of a collected process: the corpse's final
      // destruction bundle — which atomically carries its deferred
      // on-behalf grants (§3.4) — has not been processed at the row's
      // owner yet, so the row is mid-update: a rescue grant the corpse
      // deferred may still be in flight. Death certificates travel
      // faster than bundles (they relay on every message); concluding
      // "all paths dead" here removes a live process (found by
      // scenario fuzzing). Block; inquiring the slot's subject fetches
      // the bundle posthumously for our own row, and a replica owner's
      // refreshed row arrives via the usual confirmation round.
      missing.insert(source.valid() ? source : q);
      blocked = true;
      return;
    }
    stack.emplace_back(q, source);
  };
  for (const auto& [q, ts] : self_row()) {
    push_live_slot(q, ts, ProcessId{});
  }
  while (!stack.empty()) {
    const auto [q, source] = stack.back();
    stack.pop_back();
    if (visited.contains(q)) {
      continue;  // pushed again before its first visit; roots never enter
    }
    if (is_root(q)) {
      reachable = true;
      const Timestamp own = self_row().get(q);
      const auto confirmed_it = in_edge_confirmed_.find(q);
      const bool delivery_confirmed =
          confirmed_it != in_edge_confirmed_.end() &&
          confirmed_it->second >= own.index();
      if (source.valid()) {
        root_evidence.insert(source);
      } else if (resurrected_.contains(q) || !delivery_confirmed) {
        // A resurrected root claim, or one whose delivery was never
        // confirmed (a self-row entry records the SEND of the reference;
        // the carrying packet may have been lost): conservative, but it
        // must be re-verified with the root itself or it pins this
        // process alive for ever.
        root_evidence.insert(q);
      } else {
        // Our own self row holds a live, delivery-confirmed root edge:
        // authoritative, no re-verification needed.
        root_evidence.clear();
        return WalkResult::kReachable;
      }
      continue;
    }
    visited.insert(q);
    // The subject's replica row, overlaid with OUR deferred on-behalf
    // entries for it: a third-party forward this process performed is edge
    // knowledge the subject itself does not have yet (§3.4 — it travels
    // only with the eventual destruction bundle). Walking the replica
    // alone would let a lazily-deferred edge q -> root go unseen and
    // "prove" a live structure dead (found by scenario fuzzing). A stale
    // behalf entry cannot pin garbage for ever: the edge's destruction
    // carries the dropper's own counter, which supersedes the per-slot
    // behalf index in the merge. The overlay is walked as a merged view of
    // the three rows, in place; an absent row reads as empty.
    const RowTable::RowView replica = std::as_const(known_rows_).row(q);
    if (replica.exists()) {
      consulted.insert(q);
    } else {
      // Unknown predecessor: cannot prove this path dead. Conservatively
      // blocked until q's row arrives — but deferred grants already known
      // here (ours or relayed) still contribute live continuations.
      missing.insert(q);
      blocked = true;
    }
    for_each_merged(replica, std::as_const(log_).row(q),
                    std::as_const(known_behalf_).row(q),
                    [&](ProcessId p, Timestamp ts) {
                      push_live_slot(p, ts, q);
                    });
  }
  if (reachable) {
    return WalkResult::kReachable;
  }
  return blocked ? WalkResult::kBlocked : WalkResult::kUnreachable;
}

DependencyVector GgdProcess::compute_v() const {
  if (v_current_) {
    return last_v_;
  }
  Scratch& s = scratch();
  const ScratchUse use(s.v_ids, s.v_ts);
  close_v(id_, self_row(), history_, dead_, s);
  if (obs_ != nullptr) {
    ++obs_->v_closures;
  }
  DependencyVector v;
  assign_v(v, s);
  return v;
}

GgdMessage GgdProcess::make_destruction_message(
    ProcessId to, const FlatSet<ProcessId>& condemned) {
  // §3.4: the edge-destruction control message from i to k carries the row
  // DV_i[k] maintained on behalf of k — thereby atomically delivering every
  // deferred third-party edge-creation entry — with slot i replaced by a
  // destruction-marked copy of i's own latest event index. The sender's
  // own in-edge row and death knowledge ride along so a finalisation
  // cascade can unblock downstream decisions.
  GgdMessage msg;
  msg.from = id_;
  msg.to = to;
  msg.v = std::as_const(log_).row(to);
  msg.v.set(id_, Timestamp::destruction(own_timestamp().index()));
  msg.self_row = self_row();
  msg.dead = dead_;
  if (condemned.contains(to)) {
    msg.condemned = condemned;
  }
  attach_sync(msg);
  return msg;
}

GgdMessage GgdProcess::make_announce(ProcessId to) {
  GgdMessage msg;
  msg.from = id_;
  msg.to = to;
  // Never an older V than the current state's: the acquisition this
  // announce reports was written through log(), which marks last_v_
  // stale, and an announce whose vector lacks a live slot for its own
  // sender tells the target nothing.
  msg.v = compute_v();
  msg.self_row = self_row();
  msg.behalf = std::as_const(log_).row(to);
  msg.dead = dead_;
  attach_sync(msg);
  return msg;
}

std::uint64_t GgdProcess::stamp_reply_content(DependencyVector& v) {
  if (!v_current_) {
    // The V this reply ships is a fresh closure, which need not be
    // last_v_ (a log write, a decertified row or an absorbed grant since
    // the last receive): the stamp must version what actually ships.
    v = compute_v();
    const bool off_last = !(v == last_v_);
    if (off_last || content_off_last_) {
      content_stamp_ = 0;
    }
    content_off_last_ = off_last;
  }
  if (content_stamp_ == 0) {
    content_stamp_ = ++rev_counter_;
  }
  return content_stamp_;
}

GgdMessage GgdProcess::make_reply(const GgdMessage& inquiry) {
  const ProcessId to = inquiry.from;
  GgdMessage msg;
  msg.from = id_;
  msg.to = to;
  msg.behalf = std::as_const(log_).row(to);
  // Deferred on-behalf knowledge rides along: the inquirer's verdict may
  // hinge on a grant we deferred for a THIRD party (§3.4). It already
  // merged every row stamped at or below its echo, so only the rows
  // written since then ship (all of them if the echo names stamps of an
  // earlier incarnation of ours). Rows of processes in `dead` are left
  // out: the inquirer learns those deaths from this very reply before it
  // merges its rows, and skips them.
  settle_log_stamps();
  for (const auto& [q, row] : log_.rows()) {
    if (row.stamp() > inquiry.echo && !row.empty() && q != to &&
        !dead_.contains(q)) {
      msg.behalf_rows.emplace(q, row);
      msg.reply_stamp = std::max(msg.reply_stamp, row.stamp());
    }
  }
  // V and the self row are versioned by the same frontier: the inquirer
  // merges both idempotently, so content it merged from an earlier reply
  // and that has not changed since is left out.
  DependencyVector v;
  const std::uint64_t content = stamp_reply_content(v);
  if (content > inquiry.echo) {
    msg.v = v_current_ ? last_v_ : std::move(v);
    msg.self_row = self_row();
    msg.reply_stamp = std::max(msg.reply_stamp, content);
  } else {
    msg.current = true;
  }
  msg.dead = dead_;
  msg.reply = true;
  msg.holds_receiver = acquaintances_.contains(to);
  // Relayed rows only for a blocked walk: any other inquirer inquires
  // every subject its verdict rests on, and each of those subjects ships
  // its own row as `self_row`, so relayed rows would mostly be ones the
  // inquirer already holds. Rows owed to such a peer wait for the next
  // edge message to it, and the sent watermark stays where it was.
  if (inquiry.need_rows) {
    attach_sync(msg);
  }
  return msg;
}

GgdMessage GgdProcess::answer(const GgdMessage& inquiry) {
  if (removed_) {
    // Posthumous answer: the corpse's final destruction bundle again. Its
    // death certificate rides in `dead` and its deferred on-behalf grants
    // (§3.4) in `v`, healing the case where the original finalisation
    // message to this inquirer was lost or still in flight when the death
    // became known through relays.
    return make_destruction_message(inquiry.from);
  }
  merge_edge_facts(inquiry.behalf, /*skip=*/inquiry.from);
  return make_reply(inquiry);
}

GgdProcessSnapshot GgdProcess::export_state() const {
  CGC_CHECK_MSG(!removed_, "cannot migrate a collected process");
  GgdProcessSnapshot snap;
  snap.id = id_;
  snap.is_root = is_root_;
  for (const auto& [q, row] : log_.rows()) {
    snap.log_rows.emplace(q, row);
  }
  snap.acquaintances = acquaintances_;
  // The SoA tables materialize into the snapshot's owning FlatMaps in
  // increasing-id order (the wire codec's contract).
  snap.history = history_.to_map();
  snap.known_rows = known_rows_.to_map();
  snap.known_behalf = known_behalf_.to_map();
  snap.dead = dead_;
  snap.resurrected = resurrected_;
  snap.resurrect_fact_index = resurrect_fact_index_;
  snap.refuted_fact_ceiling = refuted_fact_ceiling_;
  snap.in_edge_confirmed = in_edge_confirmed_;
  snap.last_v = last_v_;
  snap.forward_pending = forward_pending_;
  snap.inflight_inquiries = inflight_inquiries_;
  snap.blocked_inquired_version = blocked_inquired_version_;
  snap.inquired_version = inquired_version_;
  snap.confirm_time = confirm_time_;
  snap.pending_verify = pending_verify_;
  snap.pending_verify_since = pending_verify_since_;
  snap.rev_counter = rev_counter_;
  return snap;
}

void GgdProcess::import_state(const GgdProcessSnapshot& snap) {
  CGC_CHECK(snap.id == id_);
  CGC_CHECK(!removed_);
  log_.release();
  for (const auto& [q, row] : snap.log_rows) {
    log_.row(q) = row;
  }
  acquaintances_ = snap.acquaintances;
  auto adopt_table = [](RowTable& table,
                        const FlatMap<ProcessId, DependencyVector>& rows) {
    table.clear();
    for (const auto& [q, row] : rows) {
      table.row(q) = row;
    }
  };
  adopt_table(history_, snap.history);
  adopt_table(known_rows_, snap.known_rows);
  adopt_table(known_behalf_, snap.known_behalf);
  dead_ = snap.dead;
  resurrected_ = snap.resurrected;
  resurrect_fact_index_ = snap.resurrect_fact_index;
  refuted_fact_ceiling_ = snap.refuted_fact_ceiling;
  in_edge_confirmed_ = snap.in_edge_confirmed;
  last_v_ = snap.last_v;
  // The snapshot's V need not be the closure of its state: a log write
  // after the mover's last receive is in the rows but not in last_v.
  v_current_ = false;
  forward_pending_ = snap.forward_pending;
  // Decision-gating state resumes unchanged: the forwarding stub chases
  // in-flight replies here, so outstanding inquiries stay answerable, and
  // verification epochs are stamped in global sim time. A gate stranded
  // by a bounced reply is cleared by the next sweep's reset, as always.
  inflight_inquiries_ = snap.inflight_inquiries;
  blocked_inquired_version_ = snap.blocked_inquired_version;
  inquired_version_ = snap.inquired_version;
  confirm_time_ = snap.confirm_time;
  pending_verify_ = snap.pending_verify;
  pending_verify_since_ = snap.pending_verify_since;
  // Of the delta-sync state only the revision counter is part of the
  // snapshot: watermarks describe what the PREVIOUS incarnation shipped,
  // and the new site-of-record must never claim rows it has not sent
  // itself. Every adopted row is re-stamped above every stamp the previous
  // incarnation drew, so an echo of an old stamp confirms nothing here.
  rev_counter_ = snap.rev_counter;
  for (const auto& adopted : snap.known_rows) {
    stamp_row(known_rows_.row(adopted.first));
  }
  log_stamps_stale_ = true;  // the next reply re-stamps every row
  content_stamp_ = 0;
  content_off_last_ = false;
  echo_.clear();
  sent_watermark_.clear();
}

void GgdProcess::retire_tombstone() {
  CGC_CHECK(removed_);
  // Walk/verdict state: only receive(), decide() and the root walks read
  // these, and all three are gated on !removed_.
  history_.release();
  known_behalf_.release();
  inflight_inquiries_.release();
  blocked_inquired_version_.release();
  resurrected_.release();
  resurrect_fact_index_.release();
  refuted_fact_ceiling_.release();
  inquired_version_.release();
  confirm_time_.release();
  in_edge_confirmed_.release();
  // Reply frontiers: a tombstone neither replies nor merges replies, so
  // neither its echoes nor the log's stamp column (which only make_reply
  // reads) are read again.
  echo_.release();
  log_.release_stamps();
  // Forward coalescing: take_forwards() is empty for a tombstone, so the
  // acquaintance list and cached V can go. `forward_pending_` must KEEP
  // its value: a pending flag means a flush event is already owed to the
  // scheduler, and suppressing that (no-op) event would shift every later
  // event's sequence number — a wire-visible reordering. take_forwards()
  // clears the flag itself when the owed flush fires.
  acquaintances_.release();
  last_v_ = DependencyVector{};
  v_current_ = false;
  // Wire-live remainder (make_destruction_message, attach_sync): frozen
  // content, tight-packed in place.
  log_.shrink_to_fit();
  known_rows_.shrink_to_fit();
  dead_.shrink_to_fit();
  sent_watermark_.shrink_to_fit();
}

GgdProcess::StorageFootprint GgdProcess::storage_footprint() const {
  StorageFootprint f;
  f.object_bytes = sizeof(GgdProcess);
  f.log_bytes = log_.footprint_bytes();
  f.history_bytes = history_.footprint_bytes();
  f.known_bytes = known_rows_.footprint_bytes();
  f.behalf_bytes = known_behalf_.footprint_bytes();

  const auto map64 = [](const auto& m) {
    return m.capacity() * sizeof(typename std::decay_t<decltype(m)>::value_type);
  };
  // dead_ counts here, not under gating: death knowledge rides in every
  // posthumous message, so it is wire-live state like the watermarks.
  f.relay_bytes = map64(dead_) + map64(echo_) + map64(sent_watermark_);
  f.gate_bytes = map64(inflight_inquiries_) + map64(blocked_inquired_version_) +
                 map64(resurrected_) + map64(resurrect_fact_index_) +
                 map64(refuted_fact_ceiling_) + map64(inquired_version_) +
                 map64(confirm_time_) + map64(in_edge_confirmed_) +
                 map64(acquaintances_) + map64(last_v_.entries());
  return f;
}

void GgdProcess::trim_storage() {
  CGC_CHECK(!removed_);
  // Row tables: only compact when there are dead slots to reclaim — an
  // unconditional tight-pack would strip every row's growth headroom and
  // make the next merge relocate its span (pool churn for no gain).
  if (log_.dead_slots() > 0) {
    log_.compact();
  }
  if (known_rows_.dead_slots() > 0) {
    known_rows_.compact();
  }
  if (history_.dead_slots() > 0) {
    history_.compact();
  }
  if (known_behalf_.dead_slots() > 0) {
    known_behalf_.compact();
  }
  // Flat maps/sets: shed the doubling slack, but only when there is
  // meaningful slack to shed — an unconditional shrink_to_fit reallocates
  // nearly every (stable) map on every trim round, which showed up as a
  // double-digit throughput hit on the small rungs. Near-stable maps pass
  // through as no-ops; actively shrinking ones get trimmed.
  const auto trim = [](auto& m) {
    if (m.capacity() >= 16 && m.capacity() - m.size() >= m.size() / 2) {
      m.shrink_to_fit();
    }
  };
  trim(echo_);
  trim(dead_);
  trim(sent_watermark_);
  trim(acquaintances_);
  trim(inflight_inquiries_);
  trim(blocked_inquired_version_);
  trim(resurrected_);
  trim(resurrect_fact_index_);
  trim(refuted_fact_ceiling_);
  trim(inquired_version_);
  trim(confirm_time_);
  trim(in_edge_confirmed_);
}

std::vector<GgdMessage> GgdProcess::remove_self(
    const FlatSet<ProcessId>& condemned) {
  CGC_CHECK(!removed_);
  CGC_CHECK_MSG(!is_root_, "an actual root can never be removed by GGD");
  // Announce our own death in the finalisation messages so receivers (and
  // their transitive correspondents) purge our lingering entries.
  dead_.insert(id_);
  std::vector<GgdMessage> out;
  out.reserve(acquaintances_.size());
  for (ProcessId k : acquaintances_) {
    out.push_back(make_destruction_message(k, condemned));
  }
  removed_ = true;
  return out;
}

}  // namespace cgc
