// Cross-site process hand-off: the MigrateState/MigrateAck protocol, the
// forwarding stub's redirect TTL, loss recovery through sweep
// re-emission, and the snapshot codec round-trip the "delivered bytes are
// authoritative" rule rests on.
#include <gtest/gtest.h>

#include <variant>

#include "ggd/engine.hpp"
#include "ggd/sweep.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "wire/messages.hpp"
#include "workload/scenario.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }
SiteId S(std::uint64_t v) { return SiteId{v}; }

NetworkConfig quiet_net(std::uint64_t seed = 7, SimTime max_latency = 3) {
  return NetworkConfig{.min_latency = 1,
                       .max_latency = max_latency,
                       .drop_rate = 0.0,
                       .duplicate_rate = 0.0,
                       .seed = seed};
}

TEST(Migration, SnapshotRoundTripsThroughTheWireCodec) {
  Simulator sim;
  Network net(sim, quiet_net());
  GgdEngine eng(net);
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  eng.create_object(P(2), P(3), S(3));
  eng.send_own_ref(P(2), P(3));
  eng.send_third_party_ref(P(2), P(3), P(1));
  ASSERT_TRUE(sim.run());
  eng.drop_ref(P(1), P(3));
  ASSERT_TRUE(sim.run());

  const GgdProcessSnapshot snap = eng.process(P(2)).export_state();
  std::vector<std::uint8_t> buf;
  wire::Encoder enc(buf);
  wire::encode_message(
      enc, wire::WireMessage{MessageKind::kMigration,
                             wire::MigrateState{42, P(2), S(2), S(9), snap}});
  wire::Decoder dec(buf);
  const auto decoded = wire::decode_message(dec);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(dec.done());
  const auto* ms = std::get_if<wire::MigrateState>(&decoded->body);
  ASSERT_NE(ms, nullptr);
  EXPECT_EQ(ms->migration_id, 42u);
  EXPECT_EQ(ms->src, S(2));
  EXPECT_EQ(ms->dst, S(9));
  EXPECT_EQ(ms->snap, snap) << "snapshot must survive the codec bit-exactly";
}

TEST(Migration, HandOffFlipsSiteOfRecordAndAcks) {
  Simulator sim;
  Network net(sim, quiet_net());
  GgdEngine eng(net);
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  ASSERT_TRUE(sim.run());

  ASSERT_TRUE(eng.migrate(P(2), S(5)));
  EXPECT_TRUE(eng.migrating(P(2)));
  EXPECT_EQ(eng.site_of(P(2)), S(2)) << "site flips only at delivery";
  EXPECT_EQ(eng.pending_handoff_count(), 1u);
  ASSERT_TRUE(sim.run());
  EXPECT_FALSE(eng.migrating(P(2)));
  EXPECT_EQ(eng.site_of(P(2)), S(5));
  EXPECT_EQ(eng.pending_handoff_count(), 0u) << "ack releases re-emission";
  EXPECT_EQ(eng.migration_stats().started, 1u);
  EXPECT_EQ(eng.migration_stats().completed, 1u);

  // No-op and degenerate hand-offs are refused.
  EXPECT_FALSE(eng.migrate(P(2), S(5))) << "already there";
  ASSERT_TRUE(eng.migrate(P(2), S(2)));
  EXPECT_FALSE(eng.migrate(P(2), S(7))) << "already in transit";
  ASSERT_TRUE(sim.run());
}

TEST(Migration, StubForwardsUntilTtlThenBounces) {
  Simulator sim;
  Network net(sim, quiet_net());
  GgdEngine eng(net);
  eng.set_redirect_ttl(1);
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  ASSERT_TRUE(sim.run());
  ASSERT_TRUE(eng.migrate(P(2), S(5)));
  ASSERT_TRUE(sim.run());  // hand-off complete, stub at S(2) armed, ttl=1

  // Two packets addressed to the vacated site, as an in-flight sender
  // with a stale locator would produce them.
  const wire::WireMessage stale{
      MessageKind::kReferencePass, wire::RefTransfer{900001, P(2), P(1)}};
  eng.deliver(S(1), S(2), stale);  // redirect 1: consumes the TTL
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(eng.migration_stats().forwarded, 1u);
  const wire::WireMessage stale2{
      MessageKind::kReferencePass, wire::RefTransfer{900002, P(2), P(1)}};
  eng.deliver(S(1), S(2), stale2);  // stub gone: bounces
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(eng.migration_stats().bounced, 1u);

  // TTL 0: the armed stub serves zero redirects — the first stale packet
  // after the ack bounces (and must not underflow into immortality).
  eng.set_redirect_ttl(0);
  ASSERT_TRUE(eng.migrate(P(2), S(6)));
  ASSERT_TRUE(sim.run());
  const wire::WireMessage stale3{
      MessageKind::kReferencePass, wire::RefTransfer{900003, P(2), P(1)}};
  eng.deliver(S(1), S(5), stale3);
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(eng.migration_stats().bounced, 2u);
  EXPECT_EQ(eng.migration_stats().forwarded, 1u);
}

TEST(Migration, LostSnapshotIsReemittedByTheSweep) {
  Simulator sim;
  Network net(sim, quiet_net(11));
  GgdEngine eng(net);
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  ASSERT_TRUE(sim.run());

  net.set_drop_rate(1.0);  // the hand-off departs into a black hole
  ASSERT_TRUE(eng.migrate(P(2), S(5)));
  ASSERT_TRUE(sim.run());
  EXPECT_TRUE(eng.migrating(P(2))) << "snapshot lost: mover stays frozen";
  EXPECT_EQ(eng.pending_handoff_count(), 1u);

  net.set_drop_rate(0.0);  // heal, then recover via the sweep
  ASSERT_TRUE(eng.sweep_slice(sweep::kUnbounded));
  ASSERT_TRUE(sim.run());
  EXPECT_FALSE(eng.migrating(P(2)));
  EXPECT_EQ(eng.site_of(P(2)), S(5));
  EXPECT_EQ(eng.pending_handoff_count(), 0u);
  EXPECT_GE(eng.migration_stats().reemitted, 1u);
  EXPECT_EQ(eng.migration_stats().completed, 1u);
}

TEST(Migration, DuplicatedSnapshotInstallsExactlyOnce) {
  Simulator sim;
  Network net(sim, quiet_net(13));
  GgdEngine eng(net);
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  ASSERT_TRUE(sim.run());

  net.set_duplicate_rate(1.0);  // every packet (the snapshot too) twice
  ASSERT_TRUE(eng.migrate(P(2), S(5)));
  ASSERT_TRUE(sim.run());
  net.set_duplicate_rate(0.0);
  EXPECT_FALSE(eng.migrating(P(2)));
  EXPECT_EQ(eng.site_of(P(2)), S(5));
  EXPECT_EQ(eng.migration_stats().completed, 1u)
      << "second copy must only re-acknowledge";
  // The mover still works: messages route to the new site and the
  // structure still collects when cut loose.
  eng.drop_ref(P(1), P(2));
  ASSERT_TRUE(sim.run());
  ASSERT_TRUE(eng.sweep_slice(sweep::kUnbounded));
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(eng.removed().size(), 1u);
  EXPECT_EQ(eng.removed().front(), P(2));
}

TEST(Migration, OracleTracksTimeIndexedSiteOfRecord) {
  Scenario s(Scenario::Config{.net = quiet_net(17)});
  const ProcessId root = s.add_root();
  const ProcessId a = s.create(root);
  ASSERT_TRUE(s.run());
  const SiteId home = s.oracle().site_of(a);
  ASSERT_TRUE(home.valid());

  const SimTime before = s.sim().now();
  ASSERT_TRUE(s.migrate(a, SiteId{home.value() + 100}));
  ASSERT_TRUE(s.run());
  const SimTime after = s.sim().now();

  EXPECT_EQ(s.oracle().site_of(a), SiteId{home.value() + 100});
  EXPECT_EQ(s.oracle().site_at(a, before), home)
      << "the flip is recorded at snapshot delivery, not at departure";
  EXPECT_EQ(s.oracle().site_at(a, after), SiteId{home.value() + 100});
}

}  // namespace
}  // namespace cgc
