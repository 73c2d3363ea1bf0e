// Cross-site process hand-off: the MigrateState/MigrateAck protocol, the
// forwarding stub's lifetime, loss recovery through sweep re-emission, and
// the snapshot codec round-trip the "delivered bytes are authoritative"
// rule rests on.
#include <gtest/gtest.h>

#include <variant>

#include "ggd/engine.hpp"
#include "ggd/sweep.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
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

// A forwarding stub has one lifetime: it redirects every stale packet
// until the sweep reclaims it — two rounds after the ack for a live mover,
// the next round for a collected one — and a stale packet then bounces.
TEST(Migration, StubRedirectsUntilTheSweepReclaimsIt) {
  Simulator sim;
  Network net(sim, quiet_net());
  GgdEngine eng(net);
  obs::Registry registry;
  eng.attach_obs(&registry, nullptr);
  const obs::Counter& reclaimed = registry.counter("ggd.stubs_reclaimed");
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  ASSERT_TRUE(sim.run());
  ASSERT_TRUE(eng.migrate(P(2), S(5)));
  ASSERT_TRUE(sim.run());  // hand-off complete, stub at S(2) armed

  // Packets addressed to the vacated site, as an in-flight sender with a
  // stale locator would produce them.
  std::uint64_t transfer_id = 900000;
  auto stale_at = [&](SiteId site) {
    const wire::RefTransfer transfer{++transfer_id, P(2), P(1)};
    eng.deliver(S(1), site,
                wire::WireMessage{MessageKind::kReferencePass, transfer});
    return sim.run();
  };
  ASSERT_TRUE(stale_at(S(2)));
  ASSERT_TRUE(stale_at(S(2)));
  EXPECT_EQ(eng.migration_stats().forwarded, 2u) << "an armed stub redirects";

  ASSERT_TRUE(eng.sweep_slice(sweep::kUnbounded));
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(reclaimed.value(), 0u) << "one round after the ack";
  ASSERT_TRUE(stale_at(S(2)));
  EXPECT_EQ(eng.migration_stats().forwarded, 3u);

  ASSERT_TRUE(eng.sweep_slice(sweep::kUnbounded));
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(reclaimed.value(), 1u) << "two rounds after the ack";
  ASSERT_TRUE(stale_at(S(2)));
  EXPECT_EQ(eng.migration_stats().forwarded, 3u);
  EXPECT_EQ(eng.migration_stats().bounced, 1u);

  // A collected mover needs no redirects: its stub goes in the next round,
  // though its ack is not two rounds old.
  eng.create_object(P(1), P(3), S(3));
  ASSERT_TRUE(sim.run());
  ASSERT_TRUE(eng.migrate(P(3), S(6)));
  ASSERT_TRUE(sim.run());
  eng.drop_ref(P(1), P(3));
  ASSERT_TRUE(sim.run());
  ASSERT_TRUE(eng.process(P(3)).removed());
  ASSERT_TRUE(eng.sweep_slice(sweep::kUnbounded));
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(reclaimed.value(), 2u);
}

// Hand-off 1's snapshot, re-emitted or duplicated, can arrive after the
// mover has landed and left again. Only the snapshot the mover is in
// transit with installs: the stale copy is re-acknowledged and nothing
// else, so the mover is neither rolled back nor unfrozen.
TEST(Migration, StaleSnapshotOfAnEarlierHandOffOnlyReacknowledges) {
  Simulator sim;
  Network net(sim, quiet_net());
  GgdEngine eng(net);
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  ASSERT_TRUE(sim.run());

  const wire::MigrateState first{1, P(2), S(2), S(5),
                                 eng.process(P(2)).export_state()};
  ASSERT_TRUE(eng.migrate(P(2), S(5)));
  ASSERT_TRUE(sim.run());
  ASSERT_EQ(eng.migration_stats().completed, 1u);
  eng.send_own_ref(P(2), P(1));  // state the first snapshot lacks
  ASSERT_TRUE(sim.run());
  const Timestamp own = eng.process(P(2)).own_timestamp();
  ASSERT_NE(own, first.snap.log_rows.at(P(2)).get(P(2)));

  ASSERT_TRUE(eng.migrate(P(2), S(6)));
  eng.deliver(S(2), S(5),
              wire::WireMessage{MessageKind::kMigration, first});
  EXPECT_EQ(eng.migration_stats().completed, 1u);
  EXPECT_TRUE(eng.migrating(P(2))) << "hand-off 2 is still in flight";
  EXPECT_EQ(eng.process(P(2)).own_timestamp(), own) << "rolled back";

  ASSERT_TRUE(sim.run());
  EXPECT_EQ(eng.migration_stats().completed, 2u);
  EXPECT_EQ(eng.site_of(P(2)), S(6));
  EXPECT_EQ(eng.process(P(2)).own_timestamp(), own);
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
