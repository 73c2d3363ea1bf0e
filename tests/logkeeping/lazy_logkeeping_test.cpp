// Unit tests for the lazy log-keeping rules (§3.4), in both paper-exact
// and robust modes.
#include <gtest/gtest.h>

#include "logkeeping/lazy_logkeeping.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

TEST(LazyLogKeeping, Rule1OwnRefBumpsBothSlots) {
  // i sends its own reference to j: DV_i[i][j]++ and DV_i[i][i]++.
  LazyLogKeeping lk(LogKeepingMode::kPaperExact);
  GgdProcess i(P(2), false);
  lk.on_send_own_ref(i, P(4));
  EXPECT_EQ(i.log().self_row().get(P(4)), Timestamp::creation(1));
  EXPECT_EQ(i.log().self_row().get(P(2)), Timestamp::creation(1));

  lk.on_send_own_ref(i, P(4));
  EXPECT_EQ(i.log().self_row().get(P(4)), Timestamp::creation(2));
  EXPECT_EQ(i.log().self_row().get(P(2)), Timestamp::creation(2));
}

TEST(LazyLogKeeping, Rule2ThirdPartyIsDeferredOnBehalf) {
  // i forwards a reference of k to j: only DV_i[k][j]++ — nothing in i's
  // self row, nothing sent anywhere.
  LazyLogKeeping lk(LogKeepingMode::kPaperExact);
  GgdProcess i(P(2), false);
  lk.on_send_third_party_ref(i, P(3), P(4));
  EXPECT_EQ(i.log().row(P(3)).get(P(4)), Timestamp::creation(1));
  EXPECT_TRUE(i.log().self_row().empty());

  lk.on_send_third_party_ref(i, P(3), P(4));
  EXPECT_EQ(i.log().row(P(3)).get(P(4)), Timestamp::creation(2));
}

TEST(LazyLogKeeping, Rule2RobustModeBumpsForwarderCounter) {
  // In robust mode forwarding is a log-keeping event of the forwarder —
  // the ordering guarantee the decision walk relies on: a row of the
  // forwarder that proves it unreachable is newer than its last forward.
  LazyLogKeeping lk(LogKeepingMode::kRobust);
  GgdProcess i(P(2), false);
  lk.on_send_third_party_ref(i, P(3), P(4));
  EXPECT_EQ(i.log().own_timestamp(), Timestamp::creation(1));
  lk.on_send_third_party_ref(i, P(3), P(5));
  EXPECT_EQ(i.log().own_timestamp(), Timestamp::creation(2));
}

TEST(LazyLogKeeping, Rule3RecipientRecordsAcquisition) {
  LazyLogKeeping lk(LogKeepingMode::kRobust);
  GgdProcess j(P(4), false);
  lk.on_receive_ref(j, P(3));
  // Robust mode: a fresh local event, mirrored into the on-behalf row.
  EXPECT_EQ(j.log().own_timestamp(), Timestamp::creation(1));
  EXPECT_EQ(j.log().row(P(3)).get(P(4)), Timestamp::creation(1));
  EXPECT_TRUE(j.acquaintances().contains(P(3)));
}

TEST(LazyLogKeeping, Rule3PaperExactMirrorsAssignedIndex) {
  LazyLogKeeping lk(LogKeepingMode::kPaperExact);
  GgdProcess j(P(4), false);
  lk.on_receive_ref(j, P(3));
  EXPECT_EQ(j.log().row(P(3)).get(P(4)), Timestamp::creation(1));
  // The mirror keeps j's own counter >= every index it assigned itself.
  EXPECT_EQ(j.log().own_timestamp(), Timestamp::creation(1));
}

TEST(LazyLogKeeping, SelfReferenceIsNotAnEdge) {
  LazyLogKeeping lk(LogKeepingMode::kRobust);
  GgdProcess j(P(4), false);
  lk.on_receive_ref(j, P(4));
  EXPECT_TRUE(j.log().self_row().empty());
  EXPECT_TRUE(j.acquaintances().empty());
}

TEST(LazyLogKeeping, DropBundlesDeferredEntries) {
  // The edge-destruction message carries DV_j[k] with slot j destruction-
  // marked: deferred third-party entries ride along atomically.
  LazyLogKeeping lk(LogKeepingMode::kRobust);
  GgdProcess j(P(2), false);
  lk.on_receive_ref(j, P(3));                    // j holds k=3
  lk.on_send_third_party_ref(j, P(3), P(4));     // j forwarded 3 to 4
  lk.on_send_third_party_ref(j, P(3), P(5));     // ... and to 5

  const GgdMessage msg = lk.on_drop_ref(j, P(3));
  EXPECT_TRUE(msg.is_destruction());
  EXPECT_EQ(msg.to, P(3));
  EXPECT_TRUE(msg.v.get(P(2)).destroyed());
  // Both deferred edge-creation entries are bundled.
  EXPECT_FALSE(msg.v.get(P(4)).is_delta());
  EXPECT_FALSE(msg.v.get(P(5)).is_delta());
  // The acquaintance and the on-behalf row are gone.
  EXPECT_FALSE(j.acquaintances().contains(P(3)));
  EXPECT_FALSE(j.log().has_row(P(3)));
}

TEST(LazyLogKeeping, DestructionIndexSupersedesAllOwnAssignments) {
  // The E index is the dropper's own counter, which in robust mode is
  // bumped by every acquisition and forward — so it supersedes every edge
  // the dropper ever created.
  LazyLogKeeping lk(LogKeepingMode::kRobust);
  GgdProcess j(P(2), false);
  lk.on_receive_ref(j, P(3));
  lk.on_receive_ref(j, P(7));
  lk.on_send_third_party_ref(j, P(7), P(9));
  const GgdMessage msg = lk.on_drop_ref(j, P(3));
  EXPECT_GE(msg.v.get(P(2)).index(), 3u);
}

TEST(LazyLogKeeping, NoControlTrafficEverEmitted) {
  // The lazy rules are pure local state updates; only on_drop_ref yields
  // a message, and it is the single edge-destruction control message.
  LazyLogKeeping lk(LogKeepingMode::kRobust);
  GgdProcess a(P(1), true);
  GgdProcess b(P(2), false);
  lk.on_send_own_ref(b, P(1));
  lk.on_receive_ref(a, P(2));
  lk.on_send_third_party_ref(a, P(2), P(3));
  // Nothing to assert about a network — the API cannot send: it returns
  // void everywhere except on_drop_ref. This test documents the shape.
  const GgdMessage only = lk.on_drop_ref(a, P(2));
  EXPECT_TRUE(only.is_destruction());
}

}  // namespace
}  // namespace cgc
