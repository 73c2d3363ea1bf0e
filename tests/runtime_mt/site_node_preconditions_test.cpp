// A threaded site's op preconditions. SiteNode cannot ask a global oracle
// which references exist, so it applies a forward or a drop only when the
// acting process holds the reference: the transfer that granted it has
// been delivered to this site, and no drop has been applied since. The
// byte goldens cover these checks only indirectly; this test pins them on
// one reference, before and after its transfer packet lands.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime_mt/placement.hpp"
#include "runtime_mt/site_node.hpp"
#include "runtime_mt/transport.hpp"
#include "workload/ops.hpp"

namespace cgc::runtime_mt {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

/// Three sites on one thread; each site's output waits in its assembler
/// until the test hands a packet over, so the test picks what is
/// delivered and when.
struct Sites {
  static constexpr std::uint64_t kSites = 3;

  explicit Sites(const std::vector<MutatorOp>& ops) : placement(kSites, ops) {
    for (std::uint64_t s = 0; s < kSites; ++s) {
      nodes.push_back(std::make_unique<SiteNode>(SiteId{s}, placement,
                                                 LogKeepingMode::kRobust));
      assemblers.push_back(std::make_unique<PacketAssembler>(SiteId{s}));
      PacketAssembler& assembler = *assemblers.back();
      nodes.back()->set_sender(
          [&assembler](SiteId to, const wire::WireMessage& msg) {
            (void)assembler.add(to, msg);
          });
    }
  }

  bool apply(const MutatorOp& op) {
    return nodes[placement.site_for(op.a).value()]->apply(op);
  }

  /// Delivers every packet site `from` has emitted so far to its
  /// destination (their own output stays queued).
  void deliver_from(std::uint64_t from) {
    for (PacketAssembler::Packet& pkt : assemblers[from]->take()) {
      nodes[pkt.to.value()]->deliver_packet(pkt.bytes);
    }
  }

  Placement placement;
  std::vector<std::unique_ptr<SiteNode>> nodes;
  std::vector<std::unique_ptr<PacketAssembler>> assemblers;
};

TEST(SiteNodePreconditions, AForwardOrDropNeedsADeliveredReference) {
  // Root 3 on site 0 creates 4 (site 1) and 5 (site 2); each newborn's
  // own reference travels to the root in a transfer packet.
  const ProcessId root = P(3);
  const ProcessId x = P(4);
  const ProcessId y = P(5);
  const MutatorOp add_root{MutatorOp::Kind::kAddRoot, root, {}, {}};
  const MutatorOp create_x{MutatorOp::Kind::kCreate, x, root, {}};
  const MutatorOp create_y{MutatorOp::Kind::kCreate, y, root, {}};
  const MutatorOp forward_x{MutatorOp::Kind::kLinkThird, root, y, x};
  const MutatorOp drop_x{MutatorOp::Kind::kDrop, root, x, {}};
  Sites sites({add_root, create_x, create_y, forward_x, drop_x});

  ASSERT_TRUE(sites.apply(add_root));
  ASSERT_TRUE(sites.apply(create_x));
  ASSERT_TRUE(sites.apply(create_y));
  sites.deliver_from(2);  // the root now holds y, not yet x

  EXPECT_FALSE(sites.apply(forward_x))
      << "x's transfer to the root is still in flight";
  EXPECT_FALSE(sites.apply(drop_x))
      << "x's transfer to the root is still in flight";

  sites.deliver_from(1);
  EXPECT_TRUE(sites.apply(forward_x));
  EXPECT_TRUE(sites.apply(drop_x));
  EXPECT_FALSE(sites.apply(drop_x)) << "the reference was already dropped";
  EXPECT_FALSE(sites.apply(forward_x)) << "the reference was dropped";
}

}  // namespace
}  // namespace cgc::runtime_mt
