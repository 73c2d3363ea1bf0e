#include "ggd/process.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/scratch.hpp"

namespace cgc {

namespace {

/// Replace-if-newer merge of a reported self row, versioned by the
/// subject's own event counter (strictly monotone at the subject). An
/// older report never clobbers a newer one — duplication and reordering
/// are harmless (robustness, §5). Returns whether the stored copy
/// actually changed, which is what drives the delta-relay revision stamp:
/// the subject's counter alone cannot be the version because an
/// equal-index merge can change content without advancing it.
bool adopt_row(RowTable& rows, ProcessId subject,
               const DependencyVector& row) {
  if (!rows.contains(subject)) {
    rows.row(subject) = row;
    return true;
  }
  RowTable::RowRef stored_row = rows.row(subject);
  const std::uint64_t stored = stored_row.get(subject).index();
  const std::uint64_t incoming = row.get(subject).index();
  if (incoming > stored) {
    stored_row = row;
    return true;
  }
  if (incoming == stored) {
    // Same version: merge conservatively (a destruction marker at equal
    // index wins inside Timestamp::merge). Change detection is per entry —
    // the merge only ever upgrades entries, so comparing each merged entry
    // against its stored value is exactly the old whole-row comparison.
    bool changed = false;
    for (const auto& [p, ts] : row.entries()) {
      const Timestamp old = stored_row.get(p);
      const Timestamp merged = Timestamp::merge(old, ts);
      if (!(merged == old)) {
        stored_row.set(p, merged);
        changed = true;
      }
    }
    return changed;
  }
  return false;
}

/// Per-thread working sets of the per-message closure, walk and decision.
/// Each user takes what it needs through a ScratchUse, so capacity up to
/// kScratchRetain carries over from message to message and a warm thread
/// allocates nothing here. Per
/// thread rather than per process: the threaded runtime runs GgdProcess
/// code on several workers at once, and a per-process copy would be
/// resident state the memory diet has to pay for.
struct Scratch {
  // compute_v()
  std::vector<ProcessId> closure_stack;
  FlatSet<ProcessId> expanded;
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

}  // namespace

std::vector<GgdMessage> GgdProcess::receive(
    const GgdMessage& msg, const std::function<bool(ProcessId)>& is_root,
    SimTime now) {
  CGC_CHECK(msg.to == id_);
  // Frontier acks apply even to an already-collected receiver: its
  // posthumous destruction re-emissions still attach rows, and ignoring
  // the echoes would make every peer look permanently lagged.
  apply_row_acks(msg);
  if (removed_) {
    // Late or duplicated messages to an already-collected root are ignored;
    // idempotence of removal is part of the robustness claim (§5).
    return {};
  }
  const ProcessId m = msg.from;
  const Timestamp vm = msg.v.get(m);
  inflight_inquiries_.erase(m);
  // Ack every row this message shipped — including rows skipped below
  // (our own, dead subjects): an ack means "stop re-sending", which is
  // exactly right for a row we will never adopt.
  record_row_acks(msg);

  // Death is a stable global fact and is relayed monotonically. State kept
  // about a collected process will never be consulted again.
  for (ProcessId q : msg.dead) {
    if (q != id_ && dead_.insert(q).second) {
      history_.erase(q);
      known_rows_.erase(q);
      row_rev_.erase(q);
      known_behalf_.erase(q);
    }
  }
  // The sender's edge-precise in-edge row. An *empty* row is still an
  // answer ("I have no in-edges") and must be stored, or a blocked walk
  // re-blocks for ever on an eventless subject. Rows of dead processes are
  // not resurrected.
  if (!dead_.contains(m)) {
    if (adopt_row(known_rows_, m, msg.self_row)) {
      bump_rev(m);
    }
  }
  // Relayed rows (versioned facts, replace-if-newer).
  for (const auto& [q, row] : msg.rows) {
    if (q != id_ && q != m && !dead_.contains(q)) {
      if (adopt_row(known_rows_, q, row)) {
        bump_rev(q);
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

  const Timestamp known_m = log_.self_row().get(m);
  if (msg.reply) {
    // An inquiry answer: certifies the sender's history and row without
    // implying any edge m -> i. The row adopted above is the sender's own
    // fresh account as of now — record the arrival time so an unreachable
    // verdict that began pending earlier may rest on it.
    confirm_time_[m] = now;
    history_.row(m).merge(msg.v);
    if (msg.has_out_edges && msg.out_edges.contains(id_)) {
      // The responder vouches that it currently holds us: its in-edge
      // claim is delivery-confirmed up to the slot's present index.
      const Timestamp cur = log_.self_row().get(m);
      if (!cur.is_delta() && !cur.destroyed()) {
        in_edge_confirmed_[m] = std::max(in_edge_confirmed_[m], cur.index());
      }
    }
    if (msg.has_out_edges && !msg.out_edges.contains(id_)) {
      const Timestamp cur = log_.self_row().get(m);
      if (!cur.is_delta()) {
        // Fresh refutation: the responder does not hold an edge to us, so
        // the live claim for slot m — resurrected or left over from a lost
        // destruction message — is masked. Any forwarder still racing a
        // reference of us towards m remains a live slot of its own and
        // keeps blocking removal until its atomic bundle re-announces the
        // edge, which re-resurrects and re-verifies.
        const std::uint64_t version =
            std::max(cur.index(), msg.self_row.get(m).index());
        log_.self_row().set(m, Timestamp::destruction(version));
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
    log_.new_local_event();
    log_.self_row().merge_entry(m, vm);
    resurrected_.erase(m);
    merge_edge_facts(msg.v, /*skip=*/m);
  } else if (vm.destroyed()) {
    // Stale destruction (a duplicate, a reordered copy, or a sweep
    // re-emission whose marker no longer supersedes): the marker itself
    // is old news, but the bundled deferred edge-creation entries are
    // edge facts that must still land — dropping them can lose the ONLY
    // record of a lazily-deferred in-edge when its forwarder has since
    // been collected (found by scenario fuzzing).
    log_.self_row().merge_entry(m, vm);
    merge_edge_facts(msg.v, /*skip=*/m);
  } else {
    // Vector-propagation message: slot `m` is the edge fact (the sender
    // holds an edge m -> i, or it would not be forwarding its vector
    // here); the vector as a whole is m's own account of its causal
    // history and goes into the history map, NOT into the self row —
    // conflating the two lets transitive entries masquerade as incoming
    // edges (DESIGN.md §2).
    if (vm.supersedes(log_.self_row().get(m))) {
      resurrected_.erase(m);
    }
    log_.self_row().merge_entry(m, vm);
    history_.row(m).merge(msg.v);
  }

  if (dead_.contains(m)) {
    // Hearing from a collected process at all means this is its final
    // account (a posthumous bundle or certificate): whatever index races
    // left in the slot, the edge is gone — death is stable. Without this,
    // a live slot raced above the corpse's final event index blocks the
    // walk on the same dead subject for ever.
    const Timestamp cur = log_.self_row().get(m);
    if (!cur.is_delta()) {
      log_.self_row().set(m, Timestamp::destruction(cur.index()));
      resurrected_.erase(m);
    }
  }

  if (!msg.reply && !vm.is_delta() && !vm.destroyed()) {
    // A live non-reply message from m is only sent along a live edge
    // m -> us (vector forwards go to acquaintances): m holds us right
    // now, so whatever the slot's current state is, its delivery is
    // confirmed. A destruction (vm destroyed) confirms nothing.
    const Timestamp cur = log_.self_row().get(m);
    if (!cur.is_delta() && !cur.destroyed()) {
      in_edge_confirmed_[m] = std::max(in_edge_confirmed_[m], cur.index());
    }
  }

  const DependencyVector v = compute_v();

  std::vector<GgdMessage> out;
  if (!(v == last_v_)) {
    // The approximation improved: it must circulate along the out-bound
    // edges of the global root graph (Fig. 6 / §3.3 step 3). The engine
    // coalesces the actual sends (one consolidated vector per process per
    // tick) so a burst of partial improvements does not multiply traffic.
    last_v_ = v;
    forward_pending_ = true;
  }

  // Garbage decision: edge-precise reachability over the replicated
  // in-edge rows. The aggregate vector time V cannot be used on its own —
  // a destruction marker for one edge of q would mask a live entry for a
  // different edge of q (DESIGN.md §2) — but it remains the quantity the
  // paper's figures show and what triggers propagation above.
  //
  // Inquiries ride only on replies: during an active cascade the missing
  // information is already on its way in relayed rows, but a reply means
  // this process is mid-completion of a blocked decision — a gap the
  // reply's row just uncovered must be chased NOW (demand-driven
  // completion), or a discovery chain of depth d would need d sweep
  // rounds to drain.
  std::vector<GgdMessage> decision =
      decide(is_root, /*allow_inquiry=*/msg.reply, now);
  out.insert(out.end(), decision.begin(), decision.end());
  return out;
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
    fwd.self_row = log_.self_row();
    fwd.behalf = log_.row(k);
    fwd.dead = dead_;
    attach_sync(fwd, /*include_rows=*/true);
    out.push_back(std::move(fwd));
  }
  return out;
}

std::vector<GgdMessage> GgdProcess::decide(
    const std::function<bool(ProcessId)>& is_root, bool allow_inquiry,
    SimTime now) {
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
  if (observed_) {
    walk_obs_.result = res;
    walk_obs_.consulted = static_cast<std::uint32_t>(consulted.size());
    walk_obs_.missing = static_cast<std::uint32_t>(missing.size());
    walk_obs_.first_missing =
        missing.empty() ? ProcessId{} : *missing.begin();
    walk_obs_.inquiries = {};
    walk_obs_.valid = true;
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
              ? std::max<std::uint64_t>(1, log_.self_row().get(q).index())
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
      pending_verify_ = false;
      std::vector<GgdMessage> fin = remove_self();
      out.insert(out.end(), fin.begin(), fin.end());
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
      inquired_.insert(q);
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
    for (const auto& [q, ts] : log_.self_row().entries()) {
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
  inq.behalf = log_.row(q);
  attach_sync(inq, /*include_rows=*/false);
  out.push_back(std::move(inq));
  if (observed_) {
    ++walk_obs_.inquiries[static_cast<std::size_t>(why)];
  }
}

void GgdProcess::reset_inquiry_gates() {
  inquired_.clear();
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

void GgdProcess::attach_sync(GgdMessage& msg, bool include_rows) {
  msg.sync_epoch = sync_epoch_;
  // Flush the acks accumulated for this destination: they echo ITS
  // revision stamps under ITS epoch, regardless of what this message
  // otherwise carries.
  auto pit = ack_pending_.find(msg.to);
  if (pit != ack_pending_.end()) {
    msg.row_acks = std::move(pit->second);
    ack_pending_.erase(msg.to);
    auto eit = ack_epoch_pending_.find(msg.to);
    if (eit != ack_epoch_pending_.end()) {
      msg.ack_epoch = eit->second;
      ack_epoch_pending_.erase(msg.to);
    }
  }
  if (!include_rows) {
    return;
  }
  if (relay_policy_ == RelayPolicy::kWholeMap) {
    for (const auto& [q, row] : known_rows_.rows()) {
      msg.rows.emplace(q, row);
      auto rit = row_rev_.find(q);
      CGC_CHECK(rit != row_rev_.end());
      msg.row_revs.emplace(q, rit->second);
    }
    return;
  }
  // Delta selection: ship only rows whose revision is past what this
  // destination has been sent — i.e. past the per-peer watermark, plus
  // any row the resync escape hatch forced back. The frontier advances
  // optimistically at build time (watermark := revision counter: every
  // row at or below it either ships right here or shipped before); loss
  // is recovered by the sweep's rollback and missing rows self-heal
  // through the inquiry machinery anyway — a lost row costs latency,
  // never a verdict.
  auto& ps = peer_sync_[msg.to];
  for (const auto& [q, row] : known_rows_.rows()) {
    if (q == msg.to) {
      continue;  // the receiver ignores a relayed copy of its own row
    }
    auto rit = row_rev_.find(q);
    CGC_CHECK(rit != row_rev_.end());
    const std::uint64_t rev = rit->second;
    if (rev <= ps.sent_watermark && !ps.forced.contains(q)) {
      continue;
    }
    msg.rows.emplace(q, row);
    msg.row_revs.emplace(q, rev);
    ps.unacked[q] = rev;
    ps.forced.erase(q);
  }
  ps.sent_watermark = rev_counter_;
}

void GgdProcess::record_row_acks(const GgdMessage& msg) {
  if (msg.row_revs.empty() || relay_policy_ == RelayPolicy::kWholeMap) {
    // Whole-map peers re-ship everything regardless of acks, so echoing
    // stamps back at them would be pure overhead (and would make the
    // whole-map baseline pay delta's bookkeeping bytes in comparisons).
    return;
  }
  const ProcessId m = msg.from;
  auto eit = ack_epoch_pending_.find(m);
  if (eit == ack_epoch_pending_.end()) {
    ack_epoch_pending_.emplace(m, msg.sync_epoch);
  } else if (msg.sync_epoch > eit->second) {
    // The sender's sync state restarted (migration hand-off): stamps
    // recorded against its previous epoch would be misread as current.
    eit->second = msg.sync_epoch;
    ack_pending_.erase(m);
  } else if (msg.sync_epoch < eit->second) {
    // Rows from the pre-restart incarnation, delivered late. Adoption
    // above still applied (rows are versioned by their subjects); the
    // stamps, however, belong to a dead epoch — acking them under the
    // current one would advance frontiers the new incarnation never sent.
    return;
  }
  auto& pending = ack_pending_[m];
  for (const auto& [q, rev] : msg.row_revs) {
    auto [it, fresh] = pending.emplace(q, rev);
    if (!fresh && it->second < rev) {
      it->second = rev;
    }
  }
}

void GgdProcess::apply_row_acks(const GgdMessage& msg) {
  if (msg.row_acks.empty() || msg.ack_epoch != sync_epoch_) {
    // Epoch mismatch: the acks echo stamps from a previous incarnation of
    // this process's sync state (pre-migration). Dropping them merely
    // re-ships some rows; honouring them could advance a frontier past
    // rows this incarnation never sent.
    return;
  }
  auto& ps = peer_sync_[msg.from];
  for (const auto& [q, rev] : msg.row_acks) {
    auto uit = ps.unacked.find(q);
    if (uit != ps.unacked.end() && uit->second <= rev) {
      ps.unacked.erase(uit);
    }
    // An ack implies receipt even if our own optimistic send bookkeeping
    // was rolled back meanwhile; clearing the forced mark when the ack
    // covers the row's current revision avoids one spurious re-ship (the
    // old representation's sent := max(sent, acked) lift). A vanished row
    // (death purge) has nothing left to re-ship either way.
    auto rit = row_rev_.find(q);
    if (rit == row_rev_.end() || rev >= rit->second) {
      ps.forced.erase(q);
    }
  }
}

void GgdProcess::sync_sweep_round() {
  for (auto& [peer, ps] : peer_sync_) {
    if (ps.unacked.empty()) {
      // Nothing shipped is awaiting confirmation: the peer is current.
      ps.stale_rounds = 0;
      continue;
    }
    if (++ps.stale_rounds >= 2) {
      // Full-resync escape hatch: two consecutive sweeps without the
      // peer confirming everything sent — sustained loss, a migration
      // bounce that restarted its ack stream, or a one-way edge that
      // never carries acks back. Roll the unconfirmed rows back into the
      // forced set; the next message to the peer re-ships exactly those
      // (confirmed rows stay settled under the watermark).
      for (const auto& [q, rev] : ps.unacked) {
        (void)rev;
        ps.forced.insert(q);
      }
      ps.unacked.clear();
      ps.stale_rounds = 0;
    }
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
    const Timestamp cur = log_.self_row().get(q);
    if (cur.destroyed() && cur.index() >= ts.index()) {
      auto ceiling = refuted_fact_ceiling_.find(q);
      if (ceiling != refuted_fact_ceiling_.end() &&
          ts.index() <= ceiling->second) {
        // This very fact (or an older one) was already refuted by q's own
        // fresh reply: re-resurrecting it would loop the verify cycle.
        continue;
      }
      // Conservative resurrection (DESIGN.md §2): the on-behalf entry
      // announces an edge q -> i, but third parties assign indexes from
      // stale views, so a *re-created* edge can arrive numerically below
      // an older destruction marker for a previous edge from the same
      // process. Masking it would lose a live path (the rescue race).
      // Keep it alive just above the marker: if the edge is in fact gone,
      // q's own next destruction (true counter, strictly newer) or q's
      // death certificate re-masks it — genuine garbage is collected,
      // merely later.
      log_.self_row().set(q, Timestamp::creation(cur.index() + 1));
      resurrected_.insert(q);
      auto& seen = resurrect_fact_index_[q];
      seen = std::max(seen, ts.index());
    } else {
      const Timestamp before = log_.self_row().get(q);
      log_.self_row().merge_entry(q, ts);
      if (log_.self_row().get(q).supersedes(before)) {
        // Genuinely newer information supersedes a resurrection.
        resurrected_.erase(q);
      }
    }
  }
}

GgdProcess::WalkResult GgdProcess::walk_to_root(
    const std::function<bool(ProcessId)>& is_root,
    FlatSet<ProcessId>& missing, FlatSet<ProcessId>& root_evidence,
    FlatSet<ProcessId>& consulted) const {
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
  for (const auto& [q, ts] : log_.self_row()) {
    push_live_slot(q, ts, ProcessId{});
  }
  while (!stack.empty()) {
    const auto [q, source] = stack.back();
    stack.pop_back();
    if (is_root(q)) {
      reachable = true;
      const Timestamp own = log_.self_row().get(q);
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
    if (!visited.insert(q).second) {
      continue;
    }
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
  // Seed with the self row *including* destruction markers: a marker E(t)
  // occupies its slot with numeric index t, so the closure below can only
  // replace it with a strictly newer creation entry — this is what the
  // paper's figures show circulating. (The garbage decision itself uses
  // the edge-precise walk above, not this aggregate.)
  //
  // Worklist closure rather than the paper's literal recursion: expanding
  // each known process's history exactly once computes the same transitive
  // merge while terminating on cyclic global root graphs — the structures
  // this algorithm exists to collect.
  DependencyVector v;
  for (const auto& [q, ts] : log_.self_row().entries()) {
    // Self-row entries of dead processes are elided: a collected process
    // has no outgoing edges, so the edge it once held to us is gone even
    // if its destruction message was lost.
    if (q == id_ || !dead_.contains(q)) {
      v.set(q, ts);
    }
  }
  Scratch& s = scratch();
  const ScratchUse use(s.closure_stack, s.expanded);
  std::vector<ProcessId>& stack = s.closure_stack;
  FlatSet<ProcessId>& expanded = s.expanded;
  expanded.insert(id_);
  for (const auto& [q, ts] : v.entries()) {
    if (q != id_ && !ts.is_delta()) {
      stack.push_back(q);
    }
  }
  while (!stack.empty()) {
    const ProcessId p = stack.back();
    stack.pop_back();
    if (!expanded.insert(p).second) {
      continue;
    }
    for (const auto& [q, alpha] : std::as_const(history_).row(p)) {
      if (q == p || q == id_ || alpha.is_delta()) {
        // Destruction markers inside a history describe edges of *that*
        // process, not ours.
        continue;
      }
      // Only a strictly newer index changes v, and every live entry of v
      // was pushed when it was seeded or raised: an equal index has
      // nothing left to expand. v never holds an entry of a dead process,
      // so only a rise needs the death check (dead entries contribute
      // nothing).
      if (alpha.index() > v.get(q).index() && !dead_.contains(q)) {
        v.set(q, alpha);
        stack.push_back(q);
      }
    }
  }
  return v;
}

bool GgdProcess::reachable_from_root(
    const DependencyVector& v, const std::function<bool(ProcessId)>& is_root) {
  for (const auto& [p, ts] : v.entries()) {
    if (!ts.is_delta() && is_root(p)) {
      return true;
    }
  }
  return false;
}

GgdMessage GgdProcess::make_destruction_message(ProcessId to) {
  // §3.4: the edge-destruction control message from i to k carries the row
  // DV_i[k] maintained on behalf of k — thereby atomically delivering every
  // deferred third-party edge-creation entry — with slot i replaced by a
  // destruction-marked copy of i's own latest event index. The sender's
  // own in-edge row and death knowledge ride along so a finalisation
  // cascade can unblock downstream decisions.
  GgdMessage msg;
  msg.from = id_;
  msg.to = to;
  msg.v = log_.row(to);
  msg.v.set(id_, Timestamp::destruction(log_.own_timestamp().index()));
  msg.self_row = log_.self_row();
  msg.dead = dead_;
  attach_sync(msg, /*include_rows=*/true);
  return msg;
}

GgdMessage GgdProcess::make_announce(ProcessId to) {
  GgdMessage msg;
  msg.from = id_;
  msg.to = to;
  // Always freshly computed: a cached approximation may predate the very
  // acquisition this announce reports, and an announce whose vector lacks
  // a live slot for its own sender tells the target nothing.
  msg.v = compute_v();
  msg.self_row = log_.self_row();
  msg.behalf = log_.row(to);
  msg.dead = dead_;
  attach_sync(msg, /*include_rows=*/true);
  return msg;
}

GgdMessage GgdProcess::make_reply(ProcessId to) {
  GgdMessage msg;
  msg.from = id_;
  msg.to = to;
  msg.v = compute_v();
  msg.self_row = log_.self_row();
  msg.behalf = log_.row(to);
  // The full deferred on-behalf knowledge rides along: the inquirer's
  // verdict may hinge on a grant we deferred for a THIRD party (§3.4).
  for (const auto& [q, row] : log_.rows()) {
    if (q != id_ && q != to && !row.entries().empty()) {
      msg.behalf_rows.emplace(q, row);
    }
  }
  msg.dead = dead_;
  msg.reply = true;
  msg.has_out_edges = true;
  msg.out_edges = acquaintances_;
  attach_sync(msg, /*include_rows=*/true);
  return msg;
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
  auto materialize = [](const RowTable& table) {
    FlatMap<ProcessId, DependencyVector> out;
    for (const auto& [q, row] : table.rows()) {
      out.emplace(q, row);
    }
    return out;
  };
  snap.history = materialize(history_);
  snap.known_rows = materialize(known_rows_);
  snap.known_behalf = materialize(known_behalf_);
  snap.dead = dead_;
  snap.resurrected = resurrected_;
  snap.resurrect_fact_index = resurrect_fact_index_;
  snap.refuted_fact_ceiling = refuted_fact_ceiling_;
  snap.in_edge_confirmed = in_edge_confirmed_;
  snap.last_v = last_v_;
  snap.forward_pending = forward_pending_;
  snap.inquired = inquired_;
  snap.inflight_inquiries = inflight_inquiries_;
  snap.blocked_inquired_version = blocked_inquired_version_;
  snap.inquired_version = inquired_version_;
  snap.confirm_time = confirm_time_;
  snap.pending_verify = pending_verify_;
  snap.pending_verify_since = pending_verify_since_;
  return snap;
}

void GgdProcess::import_state(const GgdProcessSnapshot& snap) {
  CGC_CHECK(snap.id == id_);
  CGC_CHECK(!removed_);
  log_ = DvLog(id_);
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
  forward_pending_ = snap.forward_pending;
  // Decision-gating state resumes unchanged: the forwarding stub chases
  // in-flight replies here, so outstanding inquiries stay answerable, and
  // verification epochs are stamped in global sim time. A gate stranded
  // by a bounced reply is cleared by the next sweep's reset, as always.
  inquired_ = snap.inquired;
  inflight_inquiries_ = snap.inflight_inquiries;
  blocked_inquired_version_ = snap.blocked_inquired_version;
  inquired_version_ = snap.inquired_version;
  confirm_time_ = snap.confirm_time;
  pending_verify_ = snap.pending_verify;
  pending_verify_since_ = snap.pending_verify_since;
  // Delta-sync state is deliberately NOT part of the snapshot: per-peer
  // frontiers describe what the PREVIOUS incarnation shipped, and the new
  // site-of-record must never claim rows it has not sent itself. Restamp
  // every adopted row from a fresh counter and open a new sync epoch so
  // ack echoes addressed to the old incarnation's stamps are discarded
  // instead of regressing frontiers (the migration-bounce failure mode).
  row_rev_.clear();
  rev_counter_ = 0;
  for (const auto& [q, row] : known_rows_.rows()) {
    (void)row;
    row_rev_.emplace(q, ++rev_counter_);
  }
  peer_sync_.clear();
  ack_pending_.clear();
  ack_epoch_pending_.clear();
  ++sync_epoch_;
}

void GgdProcess::retire_tombstone() {
  CGC_CHECK(removed_);
  // Walk/verdict state: only receive(), decide() and the root walks read
  // these, and all three are gated on !removed_.
  history_.release();
  known_behalf_.release();
  inquired_.release();
  inflight_inquiries_.release();
  blocked_inquired_version_.release();
  resurrected_.release();
  resurrect_fact_index_.release();
  refuted_fact_ceiling_.release();
  inquired_version_.release();
  confirm_time_.release();
  in_edge_confirmed_.release();
  // Forward coalescing: take_forwards() is empty for a tombstone, so the
  // acquaintance list and cached V can go. `forward_pending_` must KEEP
  // its value: a pending flag means a flush event is already owed to the
  // scheduler, and suppressing that (no-op) event would shift every later
  // event's sequence number — a wire-visible reordering. take_forwards()
  // clears the flag itself when the owed flush fires.
  acquaintances_.release();
  last_v_ = DependencyVector{};
  // Wire-live remainder (make_destruction_message, attach_sync,
  // apply_row_acks): frozen content, tight-packed in place.
  log_.shrink_to_fit();
  known_rows_.shrink_to_fit();
  row_rev_.shrink_to_fit();
  dead_.shrink_to_fit();
  ack_epoch_pending_.shrink_to_fit();
  for (auto& [peer, ps] : peer_sync_) {
    (void)peer;
    // `unacked` is write-only bookkeeping once removed: the rollback that
    // reads it (sync_sweep_round) never runs for a tombstone — sweeps
    // skip removed processes — and neither the attach decision
    // (watermark + forced) nor the ack handler's forced-clear (row_rev_)
    // consults it. The final cascade shipped every known row to every
    // acquaintance, so these maps are the bulk of a corpse's relay state.
    ps.unacked.release();
    ps.forced.shrink_to_fit();
  }
  peer_sync_.shrink_to_fit();
  for (auto& [peer, acks] : ack_pending_) {
    (void)peer;
    acks.shrink_to_fit();
  }
  ack_pending_.shrink_to_fit();
}

GgdProcess::StorageFootprint GgdProcess::storage_footprint() const {
  StorageFootprint f;
  f.log_bytes = log_.footprint_bytes();
  f.history_bytes = history_.footprint_bytes();
  f.known_bytes = known_rows_.footprint_bytes();
  f.behalf_bytes = known_behalf_.footprint_bytes();

  const auto map64 = [](const auto& m) {
    return m.capacity() * sizeof(typename std::decay_t<decltype(m)>::value_type);
  };
  // dead_ counts here, not under gating: death knowledge rides in every
  // posthumous message, so it is wire-live state like the frontiers.
  f.relay_bytes = map64(row_rev_) + map64(ack_epoch_pending_) +
                  map64(dead_) +
                  peer_sync_.capacity() *
                      sizeof(std::pair<ProcessId, PeerSync>) +
                  map64(ack_pending_);
  for (const auto& [peer, ps] : peer_sync_) {
    (void)peer;
    f.relay_bytes += map64(ps.unacked) + map64(ps.forced);
  }
  for (const auto& [peer, acks] : ack_pending_) {
    (void)peer;
    f.relay_bytes += map64(acks);
  }

  f.gate_bytes = map64(inquired_) + map64(inflight_inquiries_) +
                 map64(blocked_inquired_version_) + map64(resurrected_) +
                 map64(resurrect_fact_index_) + map64(refuted_fact_ceiling_) +
                 map64(inquired_version_) + map64(confirm_time_) +
                 map64(in_edge_confirmed_) + map64(acquaintances_) +
                 map64(last_v_.entries());
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
  trim(row_rev_);
  trim(dead_);
  trim(ack_epoch_pending_);
  for (auto& [peer, ps] : peer_sync_) {
    (void)peer;
    trim(ps.unacked);
    trim(ps.forced);
  }
  trim(peer_sync_);
  for (auto& [peer, acks] : ack_pending_) {
    (void)peer;
    trim(acks);
  }
  trim(ack_pending_);
  trim(acquaintances_);
  trim(inquired_);
  trim(inflight_inquiries_);
  trim(blocked_inquired_version_);
  trim(resurrected_);
  trim(resurrect_fact_index_);
  trim(refuted_fact_ceiling_);
  trim(inquired_version_);
  trim(confirm_time_);
  trim(in_edge_confirmed_);
}

std::vector<GgdMessage> GgdProcess::remove_self() {
  CGC_CHECK(!removed_);
  CGC_CHECK_MSG(!is_root_, "an actual root can never be removed by GGD");
  // Announce our own death in the finalisation messages so receivers (and
  // their transitive correspondents) purge our lingering entries.
  dead_.insert(id_);
  std::vector<GgdMessage> out;
  out.reserve(acquaintances_.size());
  for (ProcessId k : acquaintances_) {
    out.push_back(make_destruction_message(k));
  }
  removed_ = true;
  return out;
}

}  // namespace cgc
