#include "runtime_mt/site_node.hpp"

#include <variant>

#include "wire/codec.hpp"

namespace cgc::runtime_mt {

SiteNode::SiteNode(SiteId site, const Placement& placement,
                   LogKeepingMode mode, MessageStats* stats)
    : site_(site),
      placement_(placement),
      logkeeping_(mode),
      is_root_fn_([this](ProcessId p) { return placement_.is_root(p); }),
      stats_(stats) {}

void SiteNode::register_process(ProcessId id, bool is_root) {
  const std::uint32_t idx = ids_.intern(id);
  CGC_CHECK(idx == procs_.size());
  procs_.emplace_back(id, is_root, &pool_);
  proc_order_.insert(id);
  generations_.add();  // newborns start hot
}

bool SiteNode::holds(ProcessId holder, ProcessId target) const {
  auto it = held_.find(holder);
  return it != held_.end() && it->second.contains(target);
}

bool SiteNode::apply(const MutatorOp& op) {
  ++clock_;
  CGC_CHECK_MSG(placement_.site_for(op.a) == site_, "op routed to wrong site");
  switch (op.kind) {
    case MutatorOp::Kind::kAddRoot:
      if (ids_.knows(op.a)) {
        return false;
      }
      register_process(op.a, /*is_root=*/true);
      return true;
    case MutatorOp::Kind::kCreate: {
      if (op.a == op.b || ids_.knows(op.a)) {
        return false;
      }
      // Registrations never check the (remote) creator: every process in
      // the trace exists at its site, so a transfer can never reach an
      // unregistered recipient. A newborn whose creator is already dead
      // is plain garbage the sweeps must collect.
      register_process(op.a, /*is_root=*/false);
      logkeeping_.on_send_own_ref(process(op.a), op.b);
      send_ref_transfer(op.b, op.a);
      return true;
    }
    case MutatorOp::Kind::kLinkOwn:
      if (op.a == op.b || !local_live(op.a)) {
        return false;
      }
      mark_touched(op.a);
      logkeeping_.on_send_own_ref(process(op.a), op.b);
      send_ref_transfer(op.b, op.a);
      return true;
    case MutatorOp::Kind::kLinkThird:
      if (op.recipient() == op.subject() || !local_live(op.forwarder()) ||
          !holds(op.forwarder(), op.subject())) {
        return false;
      }
      mark_touched(op.forwarder());
      logkeeping_.on_send_third_party_ref(process(op.forwarder()),
                                          op.subject(), op.recipient());
      send_ref_transfer(op.recipient(), op.subject());
      return true;
    case MutatorOp::Kind::kDrop: {
      if (!local_live(op.a) || !holds(op.a, op.b)) {
        return false;
      }
      mark_touched(op.a);
      mark_touched(op.b);
      held_[op.a].erase(op.b);
      GgdMessage msg = logkeeping_.on_drop_ref(process(op.a), op.b);
      pending_destructions_[{op.a, op.b}] = msg;
      deliver_ggd(std::move(msg));
      return true;
    }
    case MutatorOp::Kind::kMigrate:
      CGC_CHECK_MSG(false, "threaded mode does not support migration ops");
      return false;
  }
  return false;
}

void SiteNode::send_ref_transfer(ProcessId recipient, ProcessId subject) {
  wire::RefTransfer transfer;
  transfer.transfer_id = (site_.value() << 40) | ++transfer_counter_;
  transfer.recipient = recipient;
  transfer.subject = subject;
  sender_(placement_.site_for(recipient),
          wire::WireMessage{MessageKind::kReferencePass, transfer});
}

void SiteNode::deliver_ggd(GgdMessage msg) {
  const MessageKind kind =
      (msg.inquiry || msg.reply) ? MessageKind::kGgdInquiry
      : msg.is_destruction()     ? MessageKind::kGgdDestruction
                                 : MessageKind::kGgdVector;
  const SiteId to = placement_.site_for(msg.to);
  sender_(to, wire::WireMessage{kind, wire::GgdControl{std::move(msg)}});
}

void SiteNode::dispatch_all(std::vector<GgdMessage> msgs) {
  for (auto& m : msgs) {
    deliver_ggd(std::move(m));
  }
}

void SiteNode::flush(ProcessId p) {
  GgdProcess& proc = process(p);
  if (proc.forward_pending()) {
    dispatch_all(proc.take_forwards());
  }
}

void SiteNode::deliver_packet(const std::vector<std::uint8_t>& bytes) {
  ++clock_;
  wire::Decoder dec(bytes);
  const SiteId from = dec.site_id();
  (void)from;
  const SiteId to = dec.site_id();
  const std::uint64_t count = dec.varint();
  CGC_CHECK_MSG(dec.ok(), "malformed packet header");
  CGC_CHECK_MSG(to == site_, "packet delivered to wrong site");
  if (stats_ != nullptr) {
    stats_->on_packet_deliver(bytes.size());
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t before = dec.consumed();
    std::optional<wire::WireMessage> msg = wire::decode_message(dec);
    CGC_CHECK_MSG(msg.has_value(), "malformed message in packet");
    if (stats_ != nullptr) {
      stats_->on_deliver(msg->kind, dec.consumed() - before);
    }
    if (const auto* transfer = std::get_if<wire::RefTransfer>(&msg->body)) {
      on_ref_transfer(*transfer);
    } else if (const auto* control =
                   std::get_if<wire::GgdControl>(&msg->body)) {
      on_ggd_message(control->msg);
    } else {
      CGC_CHECK_MSG(false, "unexpected wire body at a threaded GGD site");
    }
  }
  CGC_CHECK_MSG(dec.done(), "trailing bytes after last message");
}

void SiteNode::on_ref_transfer(const wire::RefTransfer& transfer) {
  if (!applied_transfers_.insert(transfer.transfer_id)) {
    return;  // duplicated delivery: the transfer applied once
  }
  // A re-granted reference obsoletes any still-undelivered destruction of
  // the previous edge, exactly as in the engine — and both live at the
  // recipient's site, so the per-site split keeps this path intact.
  pending_destructions_.erase({transfer.recipient, transfer.subject});
  held_[transfer.recipient].insert(transfer.subject);
  mark_touched(transfer.recipient);
  logkeeping_.on_receive_ref(process(transfer.recipient), transfer.subject);
  if (on_ref_delivered_) {
    on_ref_delivered_(transfer.recipient, transfer.subject);
  }
}

void SiteNode::on_ggd_message(const GgdMessage& msg) {
  if (msg.is_destruction()) {
    // Only meaningful when the dropper is hosted here too (a co-located
    // destruction); a remote dropper keeps its obligation — see header.
    pending_destructions_.erase({msg.from, msg.to});
  }
  GgdProcess& target = process(msg.to);
  mark_touched(msg.to);
  if (msg.inquiry) {
    // Inquiries bypass receive(); apply their frontier acks explicitly
    // (same as GgdEngine::on_ggd_message).
    target.apply_row_acks(msg);
    if (!target.removed()) {
      target.absorb_edge_facts(msg.behalf, msg.from);
    }
    if (target.removed()) {
      deliver_ggd(target.make_destruction_message(msg.from));
    } else {
      deliver_ggd(target.make_reply(msg.from));
    }
    return;
  }
  if (target.removed()) {
    return;
  }
  std::vector<GgdMessage> out = target.receive(msg, is_root_fn_, clock_);
  if (target.removed()) {
    note_removed(msg.to);
  }
  dispatch_all(std::move(out));
  flush(msg.to);
}

void SiteNode::note_removed(ProcessId p) {
  removed_.push_back(p);
  // Shed the walk-side state and tight-pack the wire-live remainder.
  // Thread-confined like everything else this worker owns.
  procs_[ids_.index_of(p)].retire_tombstone();
  if (on_removed_) {
    on_removed_(p);
  }
}

void SiteNode::sweep() {
  while (!sweep_slice(sweep::kUnbounded)) {
  }
}

bool SiteNode::sweep_slice(std::uint64_t budget_units) {
  sweep::Budget budget(budget_units);
  ++clock_;  // each slice is one consumed input
  SweepCursor& cur = sweep_cursor_;
  if (cur.phase == SweepCursor::Phase::kIdle) {
    ++sweep_round_;
    cur.phase = SweepCursor::Phase::kDestructions;
    cur.have_destruction_key = false;
    cur.have_scan_key = false;
  }
  bool exhausted = false;
  if (cur.phase == SweepCursor::Phase::kDestructions) {
    std::vector<GgdMessage> reemit;
    auto it = cur.have_destruction_key
                  ? pending_destructions_.upper_bound(cur.destruction_key)
                  : pending_destructions_.begin();
    while (it != pending_destructions_.end()) {
      if (!budget.take()) {
        exhausted = true;
        break;
      }
      cur.destruction_key = it->first;
      cur.have_destruction_key = true;
      const ProcessId target = it->first.second;
      const std::uint32_t idx = ids_.index_of(target);
      if (idx != IdInterner<ProcessId>::kNone && procs_[idx].removed()) {
        it = pending_destructions_.erase(it);
      } else {
        reemit.push_back(it->second);
        ++it;
      }
    }
    dispatch_all(std::move(reemit));
    if (!exhausted) {
      cur.phase = SweepCursor::Phase::kScan;
    }
  }
  if (!exhausted && cur.phase == SweepCursor::Phase::kScan) {
    auto it = cur.have_scan_key ? proc_order_.upper_bound(cur.scan_key)
                                : proc_order_.begin();
    while (it != proc_order_.end()) {
      if (!budget.take()) {
        exhausted = true;
        break;
      }
      const ProcessId id = *it;
      ++it;
      cur.scan_key = id;
      cur.have_scan_key = true;
      const std::uint32_t idx = ids_.index_of(id);
      GgdProcess& proc = procs_[idx];
      if (proc.removed() || proc.is_root()) {
        continue;
      }
      // Generational skip only under a finite budget: the unbounded path
      // must stay byte-identical to the historical full scan.
      if (!budget.unbounded() && !generations_.eligible(idx, sweep_round_)) {
        continue;
      }
      proc.reset_inquiry_gates();
      proc.sync_sweep_round();
      std::vector<GgdMessage> out =
          proc.decide(is_root_fn_, /*allow_inquiry=*/true, clock_);
      const bool now_removed = proc.removed();
      if (now_removed) {
        note_removed(id);
      }
      generations_.note_scanned(idx, sweep_round_,
                                !out.empty() || now_removed);
      // Same amortized capacity diet as the engine's sweep, on this
      // worker's own processes (thread-confined; content untouched, so
      // replay-conformant).
      if (!now_removed && sweep_round_ % sweep::kTrimEveryRounds == 0) {
        proc.trim_storage();
      }
      dispatch_all(std::move(out));
      flush(id);
    }
  }
  if (exhausted) {
    return false;
  }
  cur.phase = SweepCursor::Phase::kIdle;
  return true;
}

}  // namespace cgc::runtime_mt
