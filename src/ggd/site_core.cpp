#include "ggd/site_core.hpp"

#include <chrono>
#include <utility>

namespace cgc {

GgdProcess& SiteCore::add(ProcessId id, bool is_root) {
  CGC_CHECK_MSG(!ids_.knows(id), "duplicate process id");
  const std::uint32_t idx = ids_.intern(id);
  CGC_CHECK(idx == procs_.size());
  procs_.emplace_back(id, is_root, &pool_);
  generations_.add();  // newborns start hot: scanned by the next round
  proc_order_.insert(id);
  procs_.back().set_observed(obs_attached_);
  return procs_.back();
}

void SiteCore::attach_obs(obs::Registry* registry, obs::Journal* journal) {
  journal_ = journal;
  if (registry != nullptr) {
    metrics_.sweep_pause_us = &registry->histogram("ggd.sweep_pause_us");
    metrics_.sweep_scanned = &registry->histogram("ggd.sweep_scanned");
    metrics_.sweep_slices = &registry->histogram("ggd.sweep_slices_per_round");
    metrics_.walk_consulted = &registry->histogram("ggd.walk_consulted");
    metrics_.relay_rows = &registry->histogram("ggd.relay_rows");
    metrics_.deliveries = &registry->counter("ggd.deliveries");
    metrics_.v_closures = &registry->counter("ggd.v_closures");
    metrics_.walks = &registry->counter("ggd.walks");
    metrics_.walks_blocked = &registry->counter("ggd.walks_blocked");
    metrics_.walks_unreachable = &registry->counter("ggd.walks_unreachable");
    metrics_.destructions_reemitted =
        &registry->counter("ggd.destructions_reemitted");
    metrics_.removals_condemned =
        &registry->counter("ggd.removals_condemned");
    metrics_.inquiries = &registry->counter("ggd.inquiries");
    metrics_.inquiries_by_reason = {
        &registry->counter("ggd.inquiries.reverify"),
        &registry->counter("ggd.inquiries.confirm"),
        &registry->counter("ggd.inquiries.blocked"),
        &registry->counter("ggd.inquiries.lease"),
    };
  } else {
    metrics_ = DetectorMetrics{};
  }
  obs_attached_ = registry != nullptr || journal != nullptr;
  for (GgdProcess& p : procs_) {
    p.set_observed(obs_attached_);
  }
  logkeeping_.attach_obs(registry);
}

void SiteCore::observe_closures(GgdProcess& p) {
  const std::uint32_t n = p.take_v_closures();
  if (metrics_.v_closures != nullptr) {
    metrics_.v_closures->inc(n);
  }
}

void SiteCore::observe_walk(GgdProcess& p, SimTime now) {
  if (!obs_attached_) {
    return;
  }
  observe_closures(p);
  const GgdProcess::WalkObservation obs = p.take_last_walk();
  if (!obs.valid) {
    return;
  }
  if (metrics_.walks != nullptr) {
    metrics_.walks->inc();
    if (obs.result == GgdProcess::WalkResult::kBlocked) {
      metrics_.walks_blocked->inc();
    } else if (obs.result == GgdProcess::WalkResult::kUnreachable) {
      metrics_.walks_unreachable->inc();
    }
    metrics_.walk_consulted->record(obs.consulted);
    for (std::size_t r = 0; r < obs.inquiries.size(); ++r) {
      metrics_.inquiries_by_reason[r]->inc(obs.inquiries[r]);
    }
  }
  if (journal_ != nullptr) {
    // WalkResult and obs::WalkVerdict share values by construction.
    journal_->record(now, host_.site_of(p.id()), obs::EventKind::kWalkVerdict,
                     p.id(), obs.first_missing,
                     obs::pack_walk(static_cast<obs::WalkVerdict>(obs.result),
                                    obs.consulted, obs.missing));
  }
}

void SiteCore::link_own(ProcessId i, ProcessId j, std::uint64_t transfer_id) {
  logkeeping_.on_send_own_ref(touch(i), j);
  host_.route(i, j,
              wire::WireMessage{MessageKind::kReferencePass,
                                wire::RefTransfer{transfer_id, j, i}});
}

void SiteCore::link_third(ProcessId i, ProcessId k, ProcessId j,
                          std::uint64_t transfer_id) {
  logkeeping_.on_send_third_party_ref(touch(i), k, j);
  host_.route(i, j,
              wire::WireMessage{MessageKind::kReferencePass,
                                wire::RefTransfer{transfer_id, j, k}});
}

void SiteCore::drop(ProcessId j, ProcessId k) {
  GgdMessage msg = logkeeping_.on_drop_ref(touch(j), k);
  mark_touched(k);
  pending_destructions_[{j, k}] = msg;
  if (journal_ != nullptr) {
    journal_->record(host_.now(), host_.site_of(j),
                     obs::EventKind::kDestructionEmit, j, k);
  }
  emit(std::move(msg));
}

bool SiteCore::apply_transfer(const wire::RefTransfer& transfer) {
  if (!applied_transfers_.insert(transfer.transfer_id)) {
    return false;  // duplicated delivery: the transfer applied once
  }
  // A re-granted reference obsoletes any still-undelivered destruction of
  // the previous edge: the net fact is again "recipient holds subject".
  pending_destructions_.erase({transfer.recipient, transfer.subject});
  acquire(transfer.recipient, transfer.subject);
  return true;
}

void SiteCore::acquire(ProcessId j, ProcessId k) {
  logkeeping_.on_receive_ref(touch(j), k);
  if (on_ref_delivered_) {
    on_ref_delivered_(j, k);
  }
}

void SiteCore::emit(GgdMessage msg) {
  const MessageKind kind =
      (msg.inquiry || msg.reply) ? MessageKind::kGgdInquiry
      : msg.is_destruction()     ? MessageKind::kGgdDestruction
                                 : MessageKind::kGgdVector;
  const ProcessId from = msg.from;
  const ProcessId to = msg.to;
  if (obs_attached_) {
    if (msg.inquiry) {
      if (metrics_.inquiries != nullptr) {
        metrics_.inquiries->inc();
      }
      if (journal_ != nullptr) {
        journal_->record(host_.now(), host_.site_of(from),
                         obs::EventKind::kInquiry, from, to);
      }
    }
    if (!msg.rows.empty()) {
      if (metrics_.relay_rows != nullptr) {
        metrics_.relay_rows->record(msg.rows.size());
      }
      if (journal_ != nullptr) {
        journal_->record(host_.now(), host_.site_of(from),
                         obs::EventKind::kRowRelay, from, {},
                         msg.rows.size());
      }
    }
  }
  host_.route(from, to,
              wire::WireMessage{kind, wire::GgdControl{std::move(msg)}});
}

void SiteCore::dispatch_all(std::vector<GgdMessage> msgs) {
  for (auto& m : msgs) {
    emit(std::move(m));
  }
}

void SiteCore::flush(ProcessId p) {
  GgdProcess& proc = process(p);
  if (proc.forward_pending()) {
    dispatch_all(proc.take_forwards());
  }
}

void SiteCore::deliver(const GgdMessage& msg) {
  if (msg.is_destruction()) {
    // Delivered: the retransmission obligation for this edge is met when
    // the dropper is hosted here too (a removal cascade's destruction
    // supersedes the mutator's own). A remote dropper's site keeps
    // re-emitting until a regrant or the target's removal clears it.
    pending_destructions_.erase({msg.from, msg.to});
    if (journal_ != nullptr) {
      journal_->record(host_.now(), host_.site_of(msg.to),
                       obs::EventKind::kDestructionDeliver, msg.from, msg.to);
    }
  }
  GgdProcess& target = touch(msg.to);
  if (metrics_.deliveries != nullptr) {
    metrics_.deliveries->inc();
  }
  if (msg.inquiry) {
    emit(target.answer(msg));
    if (obs_attached_ && !target.removed()) {
      observe_closures(target);
    }
    return;
  }
  if (target.removed()) {
    return;
  }
  const SimTime now = host_.now();
  std::vector<GgdMessage> out = target.receive(msg, is_root_, now);
  observe_walk(target, now);
  if (target.removed()) {
    note_removed(target);
    if (msg.condemned.contains(msg.to)) {
      note_condemned(msg.to, msg.from);
    }
  }
  dispatch_all(std::move(out));
  host_.schedule_flush(msg.to);
}

void SiteCore::note_removed(GgdProcess& p) {
  removed_.push_back(p.id());
  // Shed the walk-side state and tight-pack the wire-live remainder the
  // tombstone keeps for posthumous answers.
  p.retire_tombstone();
  if (journal_ != nullptr) {
    journal_->record(host_.now(), host_.site_of(p.id()),
                     obs::EventKind::kReclaim, p.id());
  }
  if (on_removed_) {
    on_removed_(p.id());
  }
}

void SiteCore::note_condemned(ProcessId p, ProcessId from) {
  if (metrics_.removals_condemned != nullptr) {
    metrics_.removals_condemned->inc();
  }
  if (journal_ == nullptr) {
    return;
  }
  // The set travels unchanged down the cascade, so the walker is `from`
  // itself unless `from` was condemned in turn: its own newest record
  // then names the walker. A sender whose records the ring has already
  // overwritten is named instead.
  ProcessId walker = from;
  journal_->scan_backwards([&](const obs::Record& r) {
    if (r.a != from) {
      return true;
    }
    if (r.kind == obs::EventKind::kCondemned) {
      walker = r.b;
      return false;
    }
    return r.kind != obs::EventKind::kReclaim;
  });
  journal_->record(host_.now(), host_.site_of(p), obs::EventKind::kCondemned,
                   p, walker);
}

bool SiteCore::sweep_slice(std::uint64_t budget_units) {
  using Phase = SweepCursor::Phase;
  last_sweep_budget_ = budget_units;
  sweep::Budget budget(budget_units);
  // Wall-clock pause span: only measured when observability is attached
  // (a steady_clock read per slice is cheap but not free, and unobserved
  // runs must stay untouched).
  std::chrono::steady_clock::time_point wall_start;
  if (obs_attached_) {
    wall_start = std::chrono::steady_clock::now();
  }
  const SimTime sweep_at = host_.now();
  if (cursor_.phase == Phase::kIdle) {
    // Round prologue: runs once per round, in the first slice.
    ++sweep_round_;
    cursor_ = SweepCursor{};
    cursor_.phase = Phase::kDestructions;
    if (journal_ != nullptr) {
      journal_->record(sweep_at, SiteId{}, obs::EventKind::kSweepStart, {}, {},
                       pending_destructions_.size());
    }
  }
  ++cursor_.slices;
  bool exhausted = false;

  if (cursor_.phase == Phase::kDestructions) {
    // Re-emit destruction messages that never arrived (lost packets): the
    // deployed system's local collector keeps re-summarising dropped
    // edges. Entries of collected targets are dropped instead.
    std::vector<GgdMessage> reemit;
    auto it = cursor_.have_destruction_key
                  ? pending_destructions_.upper_bound(cursor_.destruction_key)
                  : pending_destructions_.begin();
    while (it != pending_destructions_.end()) {
      if (!budget.take()) {
        exhausted = true;
        break;
      }
      cursor_.destruction_key = it->first;
      cursor_.have_destruction_key = true;
      const std::uint32_t idx = ids_.index_of(it->first.second);
      if (idx != IdInterner<ProcessId>::kNone && procs_[idx].removed()) {
        it = pending_destructions_.erase(it);
      } else {
        reemit.push_back(it->second);
        ++it;
      }
    }
    if (metrics_.destructions_reemitted != nullptr) {
      metrics_.destructions_reemitted->inc(reemit.size());
    }
    dispatch_all(std::move(reemit));
    if (!exhausted) {
      cursor_.phase = Phase::kHost;
    }
  }

  if (!exhausted && cursor_.phase == Phase::kHost) {
    exhausted = !host_.sweep_host_phases(budget);
    if (!exhausted) {
      cursor_.phase = Phase::kScan;
    }
  }

  if (!exhausted && cursor_.phase == Phase::kScan) {
    auto it = cursor_.have_scan_key ? proc_order_.upper_bound(cursor_.scan_key)
                                    : proc_order_.begin();
    while (it != proc_order_.end()) {
      if (!budget.take()) {
        exhausted = true;
        break;
      }
      const ProcessId id = *it;
      ++it;
      cursor_.scan_key = id;
      cursor_.have_scan_key = true;
      const std::uint32_t idx = ids_.index_of(id);
      GgdProcess& proc = procs_[idx];
      if (proc.removed() || proc.is_root() || host_.frozen(id)) {
        continue;
      }
      // Generational skipping applies only under a finite budget: an
      // unbounded round must scan everything (byte identity with the
      // monolithic sweep), and does so cheaply anyway.
      if (!budget.unbounded() && !generations_.eligible(idx, sweep_round_)) {
        continue;
      }
      ++cursor_.scanned;
      proc.reset_inquiry_gates();
      std::vector<GgdMessage> out =
          proc.decide(is_root_, /*allow_inquiry=*/true, host_.now());
      observe_walk(proc, sweep_at);
      const bool now_removed = proc.removed();
      if (now_removed) {
        note_removed(proc);
      }
      // Uneventful scans (no output, no removal) age the row toward a
      // longer period; anything eventful re-marks it hot.
      generations_.note_scanned(idx, sweep_round_,
                                !out.empty() || now_removed);
      // Periodic capacity diet, amortized over the scan so each budget
      // slice pays only for the processes it visits (a whole-population
      // trim at round end would put one giant memcpy in a single pause).
      // Content (and therefore the wire trace) is untouched.
      if (!now_removed && sweep_round_ % sweep::kTrimEveryRounds == 0) {
        proc.trim_storage();
      }
      dispatch_all(std::move(out));
      host_.schedule_flush(id);
    }
    if (!exhausted) {
      cursor_.phase = Phase::kIdle;  // round complete
    }
  }

  const bool round_complete = !exhausted;
  if (obs_attached_) {
    const auto wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    cursor_.round_wall_us += wall_us;
    if (metrics_.sweep_pause_us != nullptr) {
      // The pause percentile measures SLICES: what a caller actually
      // blocks for per sweep_slice() call.
      metrics_.sweep_pause_us->record(wall_us);
    }
    if (round_complete) {
      if (metrics_.sweep_scanned != nullptr) {
        metrics_.sweep_scanned->record(cursor_.scanned);
        metrics_.sweep_slices->record(cursor_.slices);
      }
      if (journal_ != nullptr) {
        journal_->record(sweep_at, SiteId{}, obs::EventKind::kSweepEnd, {}, {},
                         cursor_.round_wall_us);
      }
    }
  }
  return round_complete;
}

sweep::Backlog SiteCore::sweep_backlog(ProcessId p) const {
  sweep::Backlog b;
  const std::uint32_t idx = ids_.index_of(p);
  if (idx == IdInterner<ProcessId>::kNone) {
    return b;
  }
  b.generation = generations_.generation(idx);
  // Measured from the next round boundary: touched rows are due
  // immediately, aged ones when their period next divides the round.
  b.rounds_until_eligible =
      generations_.rounds_until_eligible(idx, sweep_round_ + 1);
  b.estimated_slices =
      sweep::estimate_slices(proc_order_.size(), proc_order_.rank(p),
                             b.rounds_until_eligible, last_sweep_budget_);
  return b;
}

}  // namespace cgc
