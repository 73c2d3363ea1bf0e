#include "runtime_mt/site_node.hpp"

#include <variant>

#include "wire/batching.hpp"
#include "wire/codec.hpp"

namespace cgc::runtime_mt {

SiteNode::SiteNode(SiteId site, const Placement& placement,
                   LogKeepingMode mode, MessageStats* stats)
    : site_(site),
      placement_(placement),
      stats_(stats),
      roots_{&placement},
      core_(*this, roots_, mode) {}

bool SiteNode::apply(const MutatorOp& op) {
  ++clock_;
  CGC_CHECK_MSG(placement_.site_for(op.a) == site_, "op routed to wrong site");
  switch (op.kind) {
    case MutatorOp::Kind::kAddRoot:
      if (core_.hosts(op.a)) {
        return false;
      }
      core_.add(op.a, /*is_root=*/true);
      return true;
    case MutatorOp::Kind::kCreate:
      if (op.a == op.b || core_.hosts(op.a)) {
        return false;
      }
      // Registrations never check the (remote) creator: every process in
      // the trace exists at its site, so a transfer can never reach an
      // unregistered recipient. A newborn whose creator is already dead
      // is plain garbage the sweeps must collect.
      core_.add(op.a, /*is_root=*/false);
      core_.link_own(op.a, op.b, next_transfer_id());
      return true;
    case MutatorOp::Kind::kLinkOwn:
      if (op.a == op.b || !core_.live(op.a)) {
        return false;
      }
      core_.link_own(op.a, op.b, next_transfer_id());
      return true;
    case MutatorOp::Kind::kLinkThird:
      if (op.recipient() == op.subject() || !core_.live(op.forwarder()) ||
          !holds(op.forwarder(), op.subject())) {
        return false;
      }
      core_.link_third(op.forwarder(), op.subject(), op.recipient(),
                       next_transfer_id());
      return true;
    case MutatorOp::Kind::kDrop:
      if (!core_.live(op.a) || !holds(op.a, op.b)) {
        return false;
      }
      core_.drop(op.a, op.b);
      return true;
    case MutatorOp::Kind::kMigrate:
      CGC_CHECK_MSG(false, "threaded mode does not support migration ops");
      return false;
  }
  return false;
}

void SiteNode::deliver_packet(const std::vector<std::uint8_t>& bytes) {
  ++clock_;
  wire::read_packet(
      bytes,
      [&](const wire::PacketHeader& h) {
        CGC_CHECK_MSG(h.to == site_, "packet delivered to wrong site");
        if (stats_ != nullptr) {
          stats_->on_packet_deliver(bytes.size());
        }
      },
      [&](const wire::WireMessage& msg, std::size_t framed) {
        if (stats_ != nullptr) {
          stats_->on_deliver(msg.kind, framed);
        }
        if (const auto* transfer = std::get_if<wire::RefTransfer>(&msg.body)) {
          core_.apply_transfer(*transfer);
        } else if (const auto* control =
                       std::get_if<wire::GgdControl>(&msg.body)) {
          core_.deliver(control->msg);
        } else {
          CGC_CHECK_MSG(false, "unexpected wire body at a threaded GGD site");
        }
      });
}

bool SiteNode::sweep_slice(std::uint64_t budget_units) {
  ++clock_;  // each slice is one consumed input
  return core_.sweep_slice(budget_units);
}

}  // namespace cgc::runtime_mt
