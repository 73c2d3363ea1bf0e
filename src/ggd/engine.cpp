#include "ggd/engine.hpp"

#include <utility>
#include <variant>

namespace cgc {

GgdProcess& GgdEngine::add_process(ProcessId id, SiteId site, bool is_root) {
  GgdProcess& proc = core_.add(id, is_root);
  site_by_idx_.push_back(site);
  root_by_idx_.push_back(is_root ? 1 : 0);
  attach_site(site);
  return proc;
}

void GgdEngine::attach_obs(obs::Registry* registry, obs::Journal* journal) {
  core_.attach_obs(registry, journal);
  stubs_reclaimed_ = registry != nullptr
                         ? &registry->counter("ggd.stubs_reclaimed")
                         : nullptr;
}

void GgdEngine::attach_site(SiteId site) {
  if (!net_.has_mailbox(site)) {
    net_.register_mailbox(site, *this);
  }
}

void GgdEngine::create_object(ProcessId creator, ProcessId newborn,
                              SiteId site, bool is_root) {
  add_process(newborn, site, is_root);
  // The newborn's half of the exchange: it hands its own reference to its
  // creator (rule 1 of §3.4) — this is the event the paper numbers e.g.
  // e2,1 for "root 1 creates object 2". The reference travels back to the
  // creator as a normal mutator message.
  core_.mark_touched(creator);
  core_.link_own(newborn, creator, ++transfer_counter_);
}

void GgdEngine::send_own_ref(ProcessId i, ProcessId j) {
  CGC_CHECK_MSG(!migrating(i), "mutator op on a process in hand-off");
  core_.link_own(i, j, ++transfer_counter_);
}

void GgdEngine::send_third_party_ref(ProcessId i, ProcessId k, ProcessId j) {
  CGC_CHECK_MSG(!migrating(i), "mutator op on a process in hand-off");
  core_.link_third(i, k, j, ++transfer_counter_);
}

void GgdEngine::on_ref_transfer(const wire::RefTransfer& transfer) {
  if (core_.apply_transfer(transfer)) {
    core_.mark_touched(transfer.subject);
  }
}

void GgdEngine::local_acquire(ProcessId j, ProcessId k) {
  CGC_CHECK_MSG(!migrating(j) && !migrating(k),
                "local acquire touching a process in hand-off");
  core_.acquire(j, k);
  core_.mark_touched(k);
  if (site_of(j) == site_of(k)) {
    // Co-located target: the site updates the target's self row in place
    // (the paper's rule 1 runs at the exporting site synchronously).
    core_.logkeeping().on_send_own_ref(process(k), j);
  } else {
    // Remote target: one asynchronous announce carries j's account of the
    // new edge. Idempotent and unordered — not the race-prone eager
    // control message of §2.3.
    core_.emit(process(j).make_announce(k));
  }
}

void GgdEngine::drop_ref(ProcessId j, ProcessId k) {
  CGC_CHECK_MSG(!migrating(j), "mutator op on a process in hand-off");
  core_.drop(j, k);
}

void GgdEngine::deliver(SiteId from, SiteId to, const wire::WireMessage& msg) {
  (void)from;
  if (const auto* transfer = std::get_if<wire::RefTransfer>(&msg.body)) {
    if (reroute_if_stale(to, transfer->recipient, msg)) {
      return;
    }
    on_ref_transfer(*transfer);
  } else if (const auto* control = std::get_if<wire::GgdControl>(&msg.body)) {
    if (reroute_if_stale(to, control->msg.to, msg)) {
      return;
    }
    on_ggd_message(control->msg);
  } else if (const auto* state = std::get_if<wire::MigrateState>(&msg.body)) {
    on_migrate_state(*state);
  } else if (const auto* ack = std::get_if<wire::MigrateAck>(&msg.body)) {
    on_migrate_ack(to, *ack);
  } else {
    CGC_CHECK_MSG(false, "unexpected wire body at a GGD site");
  }
}

void GgdEngine::on_ggd_message(const GgdMessage& msg) {
  // Participation: the hosting site handles every inquiry (collected
  // targets are answered posthumously) and every message to a live target.
  if (msg.inquiry || !process(msg.to).removed()) {
    participating_sites_.insert(site_of(msg.to));
  }
  core_.deliver(msg);
}

bool GgdEngine::reroute_if_stale(SiteId at, ProcessId target,
                                 const wire::WireMessage& msg) {
  auto t = in_transit_.find(target);
  if (t != in_transit_.end()) {
    if (at == t->second.dst) {
      // Reached the hand-off destination ahead of the state snapshot:
      // held until the state lands, then replayed in arrival order. This
      // is what makes the log transfer atomic at the protocol level — no
      // message is processed against half-moved state.
      transit_buffer_[target].push_back(msg);
      return true;
    }
    redirect(at, target, msg);
    return true;
  }
  if (site_of(target) != at) {
    // Stale addressing: the packet was sent before a completed hand-off
    // flipped the site-of-record (or chased a chain of them).
    redirect(at, target, msg);
    return true;
  }
  return false;
}

void GgdEngine::redirect(SiteId at, ProcessId target,
                         const wire::WireMessage& msg) {
  auto it = stubs_.find({at, target});
  if (it == stubs_.end()) {
    // No live stub: the packet bounces. A bounced reference transfer is
    // indistinguishable from a lost packet (the oracle counts delivered
    // edges only); bounced destructions and inquiries are re-emitted by
    // the periodic sweep towards the current site-of-record.
    ++migration_stats_.bounced;
    if (obs::Journal* journal = core_.journal()) {
      journal->record(now(), at, obs::EventKind::kMigrateBounce, target);
    }
    return;
  }
  ++migration_stats_.forwarded;
  net_.send(at, it->second.next, msg);
}

bool GgdEngine::migrate(ProcessId p, SiteId dst) {
  const SiteId src = site_of(p);
  if (process(p).removed() || in_transit_.contains(p) || src == dst) {
    return false;
  }
  attach_site(dst);
  wire::MigrateState ms;
  ms.migration_id = ++migration_counter_;
  ms.proc = p;
  ms.src = src;
  ms.dst = dst;
  ms.snap = process(p).export_state();
  in_transit_.emplace(p, TransitRecord{ms.migration_id, src, dst});
  stubs_[{src, p}] = ForwardStub{dst, /*armed=*/false, /*sweeps_survived=*/0};
  pending_handoffs_.emplace(ms.migration_id, ms);
  ++migration_stats_.started;
  if (obs::Journal* journal = core_.journal()) {
    journal->record(now(), src, obs::EventKind::kMigrateFreeze, p, {},
                    dst.value());
  }
  net_.send(src, dst, wire::WireMessage{MessageKind::kMigration, ms});
  return true;
}

void GgdEngine::on_migrate_state(const wire::MigrateState& ms) {
  auto transit = in_transit_.find(ms.proc);
  if (transit == in_transit_.end() ||
      transit->second.migration_id != ms.migration_id) {
    // Duplicated or re-emitted snapshot after the original landed (the
    // mover may be in a later hand-off by now): only the acknowledgement
    // was lost — re-confirm.
    net_.send(ms.dst, ms.src,
              wire::WireMessage{MessageKind::kMigration,
                                wire::MigrateAck{ms.migration_id, ms.proc,
                                                 ms.dst}});
    return;
  }
  const std::uint32_t idx = core_.index_of(ms.proc);
  GgdProcess& proc = process(ms.proc);
  CGC_CHECK_MSG(!proc.removed(), "a frozen mover cannot have been collected");
  // The wire's copy is authoritative: the destination resumes from the
  // delivered bytes, which is what the codec round-trip tests pin down.
  proc.import_state(ms.snap);
  site_by_idx_[idx] = ms.dst;
  core_.mark_touched(ms.proc);
  in_transit_.erase(transit);
  ++migration_stats_.completed;
  if (obs::Journal* journal = core_.journal()) {
    journal->record(now(), ms.dst, obs::EventKind::kMigrateDeliver, ms.proc,
                    {}, ms.src.value());
  }
  net_.send(ms.dst, ms.src,
            wire::WireMessage{MessageKind::kMigration,
                              wire::MigrateAck{ms.migration_id, ms.proc,
                                               ms.dst}});
  if (on_migrated_) {
    on_migrated_(ms.proc, ms.src, ms.dst);
  }
  // Replay everything that raced ahead of the state, in arrival order.
  auto buf = transit_buffer_.find(ms.proc);
  if (buf != transit_buffer_.end()) {
    std::vector<wire::WireMessage> held = std::move(buf->second);
    transit_buffer_.erase(buf);
    for (const wire::WireMessage& m : held) {
      if (const auto* transfer = std::get_if<wire::RefTransfer>(&m.body)) {
        on_ref_transfer(*transfer);
      } else if (const auto* control =
                     std::get_if<wire::GgdControl>(&m.body)) {
        on_ggd_message(control->msg);
      }
    }
  }
  // A flush the mover owed before departure resumes at the new site.
  if (proc.forward_pending()) {
    schedule_flush(ms.proc);
  }
}

void GgdEngine::on_migrate_ack(SiteId at, const wire::MigrateAck& ack) {
  pending_handoffs_.erase(ack.migration_id);
  // Arm the vacated site's stub: from here the sweep counts it down.
  // (`at` is the site the ack was addressed to — the hand-off source.)
  auto it = stubs_.find({at, ack.proc});
  if (it != stubs_.end() && it->second.next == ack.dst) {
    it->second.armed = true;
  }
}

void GgdEngine::schedule_flush(ProcessId p) {
  if (!process(p).forward_pending() || flush_scheduled_.contains(p)) {
    return;
  }
  flush_scheduled_.insert(p);
  // Coalescing with exponential backoff: on a structure of diameter d the
  // vector-time convergence delivers ~d incremental improvements to every
  // member; flushing each would cost Θ(k·d) messages. Doubling the window
  // per consecutive flush consolidates them into O(log d) sends per
  // member (latency, not correctness, is traded), which is what keeps the
  // §4 comparison's message count near-linear. The periodic sweep resets
  // the window.
  auto [slot, inserted] = flush_delay_.emplace(p, SimTime{1});
  const SimTime delay = *slot;
  *slot = std::min<SimTime>(*slot * 2, 64);
  net_.simulator().schedule_in(delay, [this, p]() {
    flush_scheduled_.erase(p);
    if (migrating(p)) {
      // The process froze after this flush was scheduled: the pending
      // flag travels in the snapshot and the destination re-schedules.
      return;
    }
    core_.flush(p);
  });
}

bool GgdEngine::sweep_slice(std::uint64_t budget_units) {
  if (core_.sweep_idle()) {
    // Round prologue: the flush backoff window restarts, and the host
    // phases start over with the core's round.
    flush_delay_.clear();
    host_cursor_ = HostSweepCursor{};
  }
  return core_.sweep_slice(budget_units);
}

bool GgdEngine::sweep_host_phases(sweep::Budget& budget) {
  HostSweepCursor& cur = host_cursor_;
  if (!cur.handoffs) {
    // Reclaim forwarding stubs: a collected mover needs no redirects, and
    // an armed stub two sweep rounds old has outlived any packet the
    // sweeps cannot re-emit.
    auto it = cur.have_stub_key ? stubs_.upper_bound(cur.stub_key)
                                : stubs_.begin();
    while (it != stubs_.end()) {
      if (!budget.take()) {
        return false;
      }
      cur.stub_key = it->first;
      cur.have_stub_key = true;
      if (process(it->first.second).removed() ||
          (it->second.armed && ++it->second.sweeps_survived >= 2)) {
        it = stubs_.erase(it);
        if (stubs_reclaimed_ != nullptr) {
          stubs_reclaimed_->inc();
        }
      } else {
        ++it;
      }
    }
    cur.handoffs = true;
  }
  // Re-emit unacknowledged hand-off snapshots: a lost MigrateState would
  // otherwise freeze the mover (and strand its held messages) for ever.
  // The mover is frozen, so the stored copy is still authoritative; a
  // re-emission racing the original is discarded by migration id.
  auto it = cur.have_handoff_key
                ? pending_handoffs_.upper_bound(cur.handoff_key)
                : pending_handoffs_.begin();
  while (it != pending_handoffs_.end()) {
    if (!budget.take()) {
      return false;
    }
    cur.handoff_key = it->first;
    cur.have_handoff_key = true;
    ++migration_stats_.reemitted;
    const wire::MigrateState& ms = it->second;
    net_.send(ms.src, ms.dst, wire::WireMessage{MessageKind::kMigration, ms});
    ++it;
  }
  return true;
}

std::size_t GgdEngine::total_log_entries() const {
  std::size_t n = 0;
  for (const GgdProcess& p : core_.processes()) {
    if (!p.removed()) {
      n += p.log().entry_count();
    }
  }
  return n;
}

}  // namespace cgc
