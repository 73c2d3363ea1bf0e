#include "runtime_mt/worker.hpp"

#include <thread>

namespace cgc::runtime_mt {

SiteWorker::SiteWorker(SiteId site, const Placement& placement,
                       LogKeepingMode mode, ThreadedTransport& transport,
                       wire::ConcurrentTraceRecorder& rec,
                       const std::vector<MutatorOp>& ops,
                       std::uint64_t rng_seed,
                       std::uint64_t coalesce_max_bytes,
                       std::uint64_t coalesce_max_ops,
                       std::uint64_t sweep_budget)
    : site_(site),
      transport_(transport),
      recorder_(rec),
      ops_(ops),
      node_(site, placement, mode, &stats_),
      assembler_(site),
      rng_(rng_seed),
      sweep_budget_(sweep_budget),
      coalesce_max_bytes_(coalesce_max_bytes),
      coalesce_max_ops_(coalesce_max_ops) {
  node_.set_sender([this](SiteId to, const wire::WireMessage& msg) {
    const std::size_t framed = assembler_.add(to, msg);
    deferred_bytes_ += framed;
    stats_.on_send(msg.kind, framed);
  });
}

void SiteWorker::run() {
  MpscQueue<Envelope>& inbox = transport_.queue(site_);
  for (;;) {
    std::optional<Envelope> env = inbox.try_pop();
    if (!env.has_value()) {
      // Idle: flush deferred output and release any parked packet so
      // neither coalescing nor the pocket can ever stall quiescence, then
      // let the other workers run (one core).
      if (transport_.aborted()) {
        discard_deferred();
      } else {
        flush_deferred();
      }
      flush_pocket();
      std::this_thread::yield();
      continue;
    }
    if (env->kind == Envelope::Kind::kStop) {
      // Healthy runs reach the sentinel quiescent (nothing deferred);
      // aborted runs may still hold parked output — drop it so the token
      // is released and nothing is pushed after the stop.
      discard_deferred();
      break;
    }
    const std::uint64_t seq = transport_.stamp();
    if (!transport_.aborted()) {
      process(*env, seq);
      maybe_ship();
    }
    ++processed_;
    transport_.sub_inflight();
  }
}

void SiteWorker::process(const Envelope& env, std::uint64_t seq) {
  InputRecord rec;
  rec.seq = seq;
  rec.site = site_;
  rec.kind = env.kind;
  switch (env.kind) {
    case Envelope::Kind::kOp:
      rec.op_index = env.op_index;
      rec.applied = node_.apply(ops_[env.op_index]);
      break;
    case Envelope::Kind::kPacket:
      rec.packet_id = env.packet_id;
      recorder_.record_delivery(env.packet_id, seq);
      node_.deliver_packet(*env.bytes);
      break;
    case Envelope::Kind::kSweep:
      // One budget-bounded slice per envelope. An unfinished round pushes
      // a counted continuation to this site's own mailbox, so other
      // envelopes (packets, ops) interleave between slices and the
      // driver's quiescence wait still spans the whole round. The
      // continuation is consumed and logged like any input, which is how
      // slice boundaries land in the replayable schedule.
      if (!node_.sweep_slice(sweep_budget_)) {
        Envelope cont;
        cont.kind = Envelope::Kind::kSweep;
        transport_.push_counted(site_, std::move(cont));
      }
      break;
    case Envelope::Kind::kStop:
      CGC_CHECK_MSG(false, "kStop reached process()");
      break;
  }
  log_.push_back(rec);
}

void SiteWorker::maybe_ship() {
  if (deferred_bytes_ == 0) {
    return;  // this input produced nothing and nothing is parked
  }
  if (!holding_token_) {
    // First deferred byte: take the token BEFORE this envelope's
    // sub_inflight so the counter can never read zero with output parked.
    transport_.add_inflight();
    holding_token_ = true;
  }
  ++deferred_ops_;
  if (deferred_bytes_ >= coalesce_max_bytes_ ||
      deferred_ops_ >= coalesce_max_ops_) {
    flush_deferred();
  }
}

void SiteWorker::flush_deferred() {
  if (!holding_token_) {
    return;
  }
  // Deferred output exists, so at least one input was consumed and logged;
  // the flush happens-after that record in this site's history.
  log_.back().flushed = true;
  for (PacketAssembler::Packet& pkt : assembler_.take()) {
    send_packet(std::move(pkt));
  }
  deferred_bytes_ = 0;
  deferred_ops_ = 0;
  holding_token_ = false;
  transport_.sub_inflight();
}

void SiteWorker::discard_deferred() {
  if (!holding_token_) {
    return;
  }
  (void)assembler_.take();
  deferred_bytes_ = 0;
  deferred_ops_ = 0;
  holding_token_ = false;
  transport_.sub_inflight();
}

void SiteWorker::send_packet(PacketAssembler::Packet&& pkt) {
  stats_.on_packet_send(pkt.bytes.size());
  // Roll the packet's transport fate once, on this worker's own stream,
  // and record it before anything is enqueued: the replay reads fates
  // from the recording and never rolls again.
  const bool dropped = rng_.chance(transport_.drop_rate());
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      std::move(pkt.bytes));
  const std::uint64_t packet_id =
      recorder_.record_send(site_, pkt.to, bytes, dropped);
  if (dropped) {
    stats_.on_packet_drop();
    for (MessageKind k : pkt.kinds) {
      stats_.on_drop(k);
    }
    return;
  }
  int copies = 1;
  if (rng_.chance(transport_.duplicate_rate())) {
    copies = 2;
    stats_.on_packet_duplicate();
    for (MessageKind k : pkt.kinds) {
      stats_.on_duplicate(k);
    }
  }
  for (int c = 0; c < copies; ++c) {
    Envelope env;
    env.kind = Envelope::Kind::kPacket;
    env.packet_id = packet_id;
    env.bytes = bytes;
    transport_.add_inflight();  // counted from this moment, parked or not
    if (!pocket_.has_value() && rng_.chance(transport_.reorder_rate())) {
      pocket_ = Parked{pkt.to, std::move(env)};
      continue;
    }
    transport_.push(pkt.to, std::move(env));
    // A later packet just went out ahead of the parked one — releasing it
    // now is what realizes the overtake.
    flush_pocket();
  }
}

void SiteWorker::flush_pocket() {
  if (pocket_.has_value()) {
    transport_.push(pocket_->to, std::move(pocket_->env));
    pocket_.reset();
  }
}

}  // namespace cgc::runtime_mt
