// Delta row-relay: the per-peer sent watermark, its reset on migration
// (fenced by a revision counter the mover keeps) and on a peer's death,
// and recovery from lost rows through inquiries. Also the reply's
// on-behalf frontier: stamped deferred rows and the inquirer's confirmed
// echo.
//
// The protocol contract under test: the delta relay may defer when a row
// travels, never whether the receiver eventually holds it. The unit tests
// pin the watermark mechanics; scenario_fuzz_test holds the relay to the
// oracle's verdicts on generated workloads, and v_current_test holds every
// row change to a fresh stamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "ggd/engine.hpp"
#include "ggd/process.hpp"
#include "logkeeping/lazy_logkeeping.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }
SiteId S(std::uint64_t v) { return SiteId{v}; }

std::function<bool(ProcessId)> roots(std::initializer_list<std::uint64_t> rs) {
  std::set<ProcessId> set;
  for (auto r : rs) {
    set.insert(P(r));
  }
  return [set](ProcessId p) { return set.contains(p); };
}

/// A plain vector message from `from`, carrying its self row — the
/// smallest receive() input that makes the receiver adopt a known row.
GgdMessage vector_msg(ProcessId from, ProcessId to, const DependencyVector& v,
                      const DependencyVector& row) {
  GgdMessage m;
  m.from = from;
  m.to = to;
  m.v = v;
  m.self_row = row;
  return m;
}

/// Teaches `p` a known row for P(2) at the given version: the row's own
/// slot (the subject's counter — the adopt-if-newer key) is `index`, and
/// the root P(1) holds it live. Returns p's revision stamp for that row.
std::uint64_t teach_row(GgdProcess& p, std::uint64_t index) {
  DependencyVector row;
  row.set(P(2), Timestamp::creation(index));
  row.set(P(1), Timestamp::creation(1));
  (void)p.receive(vector_msg(P(2), p.id(), row, row), roots({1}));
  return p.known_row(P(2)).stamp();
}

// ---------------------------------------------------------------------------
// Frontier mechanics (unit level, no network).
// ---------------------------------------------------------------------------

TEST(DeltaSync, ShipsOnlyRowsPastThePeerFrontier) {
  GgdProcess p(P(3), false);
  const std::uint64_t rev = teach_row(p, 1);
  ASSERT_GT(rev, 0u);

  // First contact with P(5): everything ships, the watermark advances.
  GgdMessage first = p.make_announce(P(5));
  ASSERT_NE(first.rows.find(P(2)), first.rows.end());
  EXPECT_EQ(first.row_revs.find(P(2))->second, rev);
  EXPECT_EQ(p.peer_sent_rev(P(5)), rev);

  // Nothing changed: the next message to the SAME peer ships no rows.
  GgdMessage second = p.make_announce(P(5));
  EXPECT_TRUE(second.rows.empty()) << "unchanged rows must not re-ship";

  // A DIFFERENT peer has its own frontier and still gets everything.
  GgdMessage other = p.make_announce(P(6));
  EXPECT_NE(other.rows.find(P(2)), other.rows.end());

  // The row changes (newer creation index): rev bumps, it ships again.
  const std::uint64_t rev2 = teach_row(p, 5);
  ASSERT_GT(rev2, rev);
  GgdMessage third = p.make_announce(P(5));
  ASSERT_NE(third.rows.find(P(2)), third.rows.end());
  EXPECT_EQ(third.row_revs.find(P(2))->second, rev2);
}

TEST(DeltaSync, ReAdoptingAnIdenticalRowDoesNotBumpTheRevision) {
  GgdProcess p(P(3), false);
  const std::uint64_t rev = teach_row(p, 1);
  EXPECT_EQ(teach_row(p, 1), rev)
      << "content-equal adoption must not invalidate peer frontiers";
  GgdMessage m = p.make_announce(P(5));
  ASSERT_NE(m.rows.find(P(2)), m.rows.end());
  EXPECT_TRUE(p.make_announce(P(5)).rows.empty());
}

TEST(DeltaSync, AnImportDrawsStampsAboveEveryStampOfTheExporter) {
  GgdProcess exporter(P(3), false);
  LazyLogKeeping lk;
  teach_row(exporter, 1);
  lk.on_send_third_party_ref(exporter, P(5), P(6));  // on-behalf row 5
  teach_row(exporter, 2);
  const std::uint64_t high = std::max(
      exporter.known_row(P(2)).stamp(),
      std::as_const(exporter).log().row(P(5)).stamp());
  ASSERT_GT(high, 0u);
  (void)exporter.make_announce(P(5));
  ASSERT_GE(exporter.peer_sent_rev(P(5)), high);

  // A fresh incarnation of 3 adopts the snapshot.
  GgdProcess mover(P(3), false);
  mover.import_state(exporter.export_state());
  EXPECT_GT(mover.known_row(P(2)).stamp(), high);
  GgdMessage inq;
  inq.from = P(7);
  inq.to = P(3);
  inq.inquiry = true;
  const GgdMessage reply = mover.make_reply(inq);  // re-stamps the log
  ASSERT_TRUE(reply.behalf_rows.contains(P(5)));
  EXPECT_GT(std::as_const(mover).log().row(P(5)).stamp(), high);
  EXPECT_GT(reply.reply_stamp, high);

  // Back to the exporter (a bounce): each arrival is a new incarnation,
  // which assumes no peer holds anything, so the first message to P(5)
  // ships the full row set at the new stamps.
  exporter.import_state(mover.export_state());
  const std::uint64_t rev = exporter.known_row(P(2)).stamp();
  EXPECT_GT(rev, mover.known_row(P(2)).stamp()) << "re-stamped again";
  EXPECT_EQ(exporter.peer_sent_rev(P(5)), 0u);
  const GgdMessage m = exporter.make_announce(P(5));
  ASSERT_TRUE(m.rows.contains(P(2)));
  EXPECT_EQ(m.row_revs.at(P(2)), rev);
}

TEST(DeltaSync, ACollectedPeerKeepsNoWatermarkAndIsShippedNoRows) {
  GgdProcess p(P(3), /*is_root=*/true);  // roots never decide
  teach_row(p, 1);
  (void)p.make_announce(P(5));
  ASSERT_GT(p.peer_sent_rev(P(5)), 0u);

  // 4 reports 5 collected: its watermark goes with the rest of its state.
  GgdMessage death = vector_msg(P(4), P(3), {}, {});
  death.reply = true;
  death.dead.insert(P(5));
  (void)p.receive(death, roots({1}));
  EXPECT_EQ(p.peer_sent_rev(P(5)), 0u);

  // A changed row ships to a live peer, but nothing ships to the corpse
  // and no watermark comes back for it.
  const std::uint64_t rev = teach_row(p, 2);
  EXPECT_TRUE(p.make_destruction_message(P(5)).rows.empty());
  EXPECT_EQ(p.peer_sent_rev(P(5)), 0u);
  const GgdMessage live = p.make_announce(P(6));
  ASSERT_TRUE(live.rows.contains(P(2)));
  EXPECT_EQ(live.row_revs.at(P(2)), rev);
}

// ---------------------------------------------------------------------------
// The reply's on-behalf frontier (unit level, no network).
// ---------------------------------------------------------------------------

/// Whether `known` holds every entry of `row` (the join of the two is
/// `known` again).
bool covers(const RowTable::RowView& known, const DependencyVector& row) {
  for (const auto& [p, ts] : row.entries()) {
    if (!(Timestamp::merge(known.get(p), ts) == known.get(p))) {
      return false;
    }
  }
  return true;
}

/// Replier 2 holds deferred rows for third parties; inquirer 3 is held
/// by 5, which is held by 2, which nothing holds: 3 proves itself
/// unreachable unless it sees 2's deferred grant 6 -> 5 (6 is a root).
struct BehalfFixture {
  GgdProcess replier{P(2), false};
  GgdProcess inquirer{P(3), false};
  LazyLogKeeping lk;
  SimTime now = 0;
  const std::function<bool(ProcessId)> is_root = roots({6});

  BehalfFixture() {
    inquirer.increment_log(P(3), P(5));  // edge 5 -> 3
    GgdMessage from5;
    from5.from = P(5);
    from5.to = P(3);
    from5.reply = true;
    from5.holds_receiver = true;
    from5.v.set(P(5), Timestamp::creation(1));
    from5.self_row.set(P(2), Timestamp::creation(1));  // edge 2 -> 5
    (void)inquirer.receive(from5, is_root, now);
    // 2's row (no in-edges), from a reply built before any deferral.
    (void)inquirer.receive(replier.answer(bare_inquiry()), is_root, now);
    EXPECT_FALSE(inquirer.removed());
  }

  GgdMessage bare_inquiry() const {
    GgdMessage inq;
    inq.from = P(3);
    inq.to = P(2);
    inq.inquiry = true;
    return inq;
  }

  /// The inquiry 3's next decision sends 2 (a fresh round: gates reset).
  GgdMessage inquire() {
    inquirer.reset_inquiry_gates();
    for (GgdMessage& m : inquirer.decide(is_root, true, ++now)) {
      if (m.inquiry && m.to == P(2)) {
        return m;
      }
    }
    ADD_FAILURE() << "no inquiry to 2";
    return bare_inquiry();
  }

  void deliver(const GgdMessage& reply) {
    (void)inquirer.receive(reply, is_root, ++now);
  }
};

TEST(BehalfFrontier, ALostReplyIsReshippedAndTheWalkSeesTheGrant) {
  BehalfFixture f;
  f.lk.on_send_third_party_ref(f.replier, P(5), P(6));  // grant 6 -> 5
  const DvLog& log = std::as_const(f.replier).log();
  ASSERT_GT(log.row(P(5)).stamp(), 0u);

  // The fixture's reply left an echo of 2's content, below the row.
  const std::uint64_t settled = f.inquirer.echo(P(2));
  ASSERT_LT(settled, log.row(P(5)).stamp());
  const GgdMessage first = f.inquire();
  EXPECT_EQ(first.echo, settled);
  const GgdMessage lost = f.replier.answer(first);
  ASSERT_TRUE(lost.behalf_rows.contains(P(5)));
  EXPECT_GE(lost.reply_stamp, log.row(P(5)).stamp());
  // `lost` never arrives: the echo must not have moved on sending.
  const GgdMessage second = f.inquire();
  EXPECT_EQ(second.echo, settled);
  const GgdMessage reply = f.replier.answer(second);
  ASSERT_TRUE(reply.behalf_rows.contains(P(5)))
      << "a reply lost on the way must not cost the inquirer the grant";
  f.deliver(reply);
  EXPECT_FALSE(f.inquirer.removed());
  FlatSet<ProcessId> missing, evidence, consulted;
  EXPECT_EQ(f.inquirer.walk_to_root(f.is_root, missing, evidence, consulted),
            GgdProcess::WalkResult::kReachable);
  EXPECT_EQ(f.inquirer.echo(P(2)), reply.reply_stamp);

  // Merged: the next reply ships nothing until 2 writes the row again.
  const GgdMessage third = f.inquire();
  EXPECT_EQ(third.echo, reply.reply_stamp);
  EXPECT_TRUE(f.replier.answer(third).behalf_rows.empty());
  f.lk.on_send_third_party_ref(f.replier, P(5), P(7));
  const GgdMessage fourth = f.replier.answer(f.inquire());
  ASSERT_TRUE(fourth.behalf_rows.contains(P(5)));
  EXPECT_GT(fourth.reply_stamp, reply.reply_stamp);
}

TEST(BehalfFrontier, AMigratedReplierShipsEveryRow) {
  BehalfFixture f;
  f.lk.on_send_third_party_ref(f.replier, P(5), P(6));
  f.lk.on_send_third_party_ref(f.replier, P(8), P(9));
  const GgdMessage before = f.replier.answer(f.inquire());
  ASSERT_EQ(before.behalf_rows.size(), 2u);
  f.deliver(before);
  ASSERT_NE(f.inquirer.echo(P(2)), 0u);
  const GgdMessage settled = f.inquire();
  EXPECT_TRUE(f.replier.answer(settled).behalf_rows.empty());

  // 2 moves: the new incarnation re-stamps its rows above every stamp it
  // drew before, so the echo of an old stamp asks for every row.
  const std::uint64_t old_echo = f.inquirer.echo(P(2));
  ASSERT_EQ(settled.echo, old_echo);
  f.replier.import_state(f.replier.export_state());
  const GgdMessage after = f.replier.answer(settled);
  EXPECT_EQ(after.behalf_rows.size(), 2u);
  EXPECT_GT(after.reply_stamp, old_echo);
  for (const auto& [q, row] : std::as_const(f.replier).log().rows()) {
    if (q != P(2)) {
      EXPECT_GT(row.stamp(), old_echo) << q.str();
    }
  }
  f.deliver(after);
  EXPECT_EQ(f.inquirer.echo(P(2)), after.reply_stamp);
  // The echo now names the new stamps, so 2 ships nothing more.
  const GgdMessage next = f.inquire();
  EXPECT_EQ(next.echo, after.reply_stamp);
  EXPECT_TRUE(f.replier.answer(next).behalf_rows.empty());
  // A row the new incarnation writes is stamped past that echo.
  f.lk.on_send_third_party_ref(f.replier, P(5), P(10));
  const GgdMessage rewritten = f.replier.answer(next);
  ASSERT_EQ(rewritten.behalf_rows.size(), 1u);
  EXPECT_EQ(rewritten.behalf_rows.at(P(5)).get(P(10)),
            Timestamp::creation(1));
  // A reply the old incarnation built, delivered late, moves no echo.
  f.deliver(before);
  EXPECT_EQ(f.inquirer.echo(P(2)), after.reply_stamp);
}

TEST(BehalfFrontier, DuplicatedOrReorderedRepliesNeverSkipAnUnmergedRow) {
  BehalfFixture f;
  f.lk.on_send_third_party_ref(f.replier, P(5), P(6));
  const GgdMessage early = f.replier.answer(f.inquire());
  f.lk.on_send_third_party_ref(f.replier, P(8), P(9));   // row 8, newer
  f.lk.on_send_third_party_ref(f.replier, P(5), P(7));   // row 5 rewritten
  const GgdMessage late = f.replier.answer(f.inquire());
  ASSERT_EQ(late.behalf_rows.size(), 2u);
  ASSERT_LT(early.reply_stamp, late.reply_stamp);

  // Only the early reply, twice: the echo stops at its stamp, below both
  // rows written since, so the next reply ships them.
  f.deliver(early);
  f.deliver(early);
  EXPECT_EQ(f.inquirer.echo(P(2)), early.reply_stamp);
  const GgdMessage next = f.replier.answer(f.inquire());
  EXPECT_EQ(next.behalf_rows, late.behalf_rows);

  // The late reply, then the early one again (reordered): the echo keeps
  // the highest merged stamp, and every row is merged.
  f.deliver(late);
  f.deliver(early);
  f.deliver(late);
  EXPECT_EQ(f.inquirer.echo(P(2)), late.reply_stamp);
  for (ProcessId q : {P(5), P(8)}) {
    EXPECT_TRUE(covers(f.inquirer.known_behalf().row(q),
                       std::as_const(f.replier).log().row(q)))
        << q.str();
  }
  EXPECT_TRUE(f.replier.answer(f.inquire()).behalf_rows.empty());
}

TEST(BehalfFrontier, AWriteThroughLogReshipsEveryRow) {
  BehalfFixture f;
  f.lk.on_send_third_party_ref(f.replier, P(5), P(6));
  f.lk.on_send_third_party_ref(f.replier, P(8), P(9));
  f.deliver(f.replier.answer(f.inquire()));
  const GgdMessage settled = f.inquire();
  ASSERT_TRUE(f.replier.answer(settled).behalf_rows.empty());
  // log() cannot tell which row its caller writes, so every row ships.
  f.replier.log().row(P(8)).increment(P(4));
  const GgdMessage reply = f.replier.answer(settled);
  EXPECT_EQ(reply.behalf_rows.size(), 2u);
  EXPECT_EQ(reply.behalf_rows.at(P(8)).get(P(4)), Timestamp::creation(1));
}

TEST(BehalfFrontier, EchoRecordsAreCountedAndDropped) {
  BehalfFixture f;
  f.lk.on_send_third_party_ref(f.replier, P(5), P(6));
  GgdProcess lone(P(3), /*is_root=*/true);
  const std::size_t before = lone.storage_footprint().relay_bytes;
  (void)lone.receive(f.replier.answer(f.bare_inquiry()), f.is_root);
  ASSERT_NE(lone.echo(P(2)), 0u);
  EXPECT_GT(lone.storage_footprint().relay_bytes, before)
      << "echo records are relay state";

  // Learning that the replier died drops its record.
  f.deliver(f.replier.answer(f.inquire()));
  ASSERT_NE(f.inquirer.echo(P(2)), 0u);
  GgdMessage death;
  death.from = P(5);
  death.to = P(3);
  death.reply = true;
  death.holds_receiver = true;
  death.dead.insert(P(2));
  (void)f.inquirer.receive(death, f.is_root, ++f.now);
  EXPECT_EQ(f.inquirer.echo(P(2)), 0u);

  // So does the inquirer's own removal, for every peer.
  GgdProcess other(P(4), false);
  f.lk.on_send_third_party_ref(other, P(5), P(6));
  GgdMessage inq = f.bare_inquiry();
  inq.to = P(4);
  f.deliver(other.answer(inq));
  ASSERT_NE(f.inquirer.echo(P(4)), 0u);
  if (!f.inquirer.removed()) {
    (void)f.inquirer.remove_self();
  }
  f.inquirer.retire_tombstone();
  EXPECT_EQ(f.inquirer.echo(P(4)), 0u);
}

TEST(BehalfFrontier, ARetiredTombstoneKeepsNoLogStamps) {
  BehalfFixture f;
  f.lk.on_send_third_party_ref(f.replier, P(5), P(6));
  f.lk.on_send_third_party_ref(f.replier, P(8), P(9));
  const DvLog& log = std::as_const(f.replier).log();
  ASSERT_GT(log.stamp_bytes(), 0u);
  const DependencyVector row5 = log.row(P(5));
  // Only make_reply reads the stamps, and a tombstone never replies.
  (void)f.replier.remove_self();
  f.replier.retire_tombstone();
  EXPECT_EQ(log.stamp_bytes(), 0u);
  EXPECT_EQ(log.row(P(5)).stamp(), 0u);
  EXPECT_EQ(DependencyVector(log.row(P(5))), row5)
      << "the posthumous bundle still reads the rows";
}

// ---------------------------------------------------------------------------
// The whole reply's frontier: V and the self row ship only past the echo.
// ---------------------------------------------------------------------------

/// Replier 2, which holds inquirer 3 and has heard from 4 (whose history
/// names 5), so its V is the closure of a receive. Both are roots: roots
/// never decide, so receive() only merges and the state is the test's.
struct ReplyFixture {
  GgdProcess replier{P(2), /*is_root=*/true};
  GgdProcess inquirer{P(3), /*is_root=*/true};
  const std::function<bool(ProcessId)> is_root = roots({2, 3});
  SimTime now = 0;

  ReplyFixture() {
    replier.add_acquaintance(P(3));
    (void)replier.receive(from4(), is_root, ++now);
  }

  /// A vector message from 4, which holds 2: 4's history names 5.
  static GgdMessage from4() {
    DependencyVector v;
    v.set(P(4), Timestamp::creation(1));
    v.set(P(5), Timestamp::creation(2));
    return vector_msg(P(4), P(2), v, {});
  }

  /// The inquiry 3 sends 2, echoing what it merged from 2's replies.
  GgdMessage inquiry() const {
    GgdMessage inq;
    inq.from = P(3);
    inq.to = P(2);
    inq.inquiry = true;
    inq.echo = inquirer.echo(P(2));
    return inq;
  }

  /// What 2 would answer an inquiry that echoes nothing, built on a copy
  /// so that 2's own stamps do not move.
  GgdMessage full_reply() const {
    GgdProcess copy = replier;
    GgdMessage inq = inquiry();
    inq.echo = 0;
    return copy.make_reply(inq);
  }

  void deliver(GgdProcess& to, const GgdMessage& reply) {
    (void)to.receive(reply, is_root, ++now);
  }

  /// Closes 2's V with a receive(), as the next message it hears would:
  /// until then a V its replies ship need not be the one it last closed,
  /// and every reply ships it.
  void settle_replier() { (void)replier.receive(from4(), is_root, ++now); }
};

/// Whether `p` holds 2's content as `reply` (a full one) carries it.
void expect_holds(const GgdProcess& p, const GgdMessage& reply) {
  ASSERT_FALSE(reply.current);
  EXPECT_TRUE(p.row_certified(P(2)));
  EXPECT_TRUE(covers(p.history().row(P(2)), reply.v)) << reply.v.str();
  EXPECT_TRUE(covers(p.known_row(P(2)), reply.self_row))
      << reply.self_row.str();
}

TEST(ReplyFrontier, ARepeatedInquiryToAnUnchangedReplierGetsACurrentReply) {
  ReplyFixture f;
  const GgdMessage first = f.replier.answer(f.inquiry());
  ASSERT_FALSE(first.current);
  ASSERT_FALSE(first.v.get(P(5)).is_delta()) << "4's history is in V";
  ASSERT_GT(first.reply_stamp, 0u);
  f.deliver(f.inquirer, first);
  EXPECT_EQ(f.inquirer.echo(P(2)), first.reply_stamp);

  const GgdMessage full = f.full_reply();
  const GgdMessage again = f.replier.answer(f.inquiry());
  EXPECT_TRUE(again.current);
  EXPECT_TRUE(again.v.empty() && again.self_row.empty());
  EXPECT_EQ(again.reply_stamp, 0u) << "nothing shipped, nothing to stamp";
  EXPECT_TRUE(again.holds_receiver);
  // The current reply leaves what the full one would: the same state, the
  // same verdict on the in-edge, and the same echo.
  GgdProcess twin = f.inquirer;
  (void)f.inquirer.receive(again, f.is_root, f.now + 1);
  (void)twin.receive(full, f.is_root, f.now + 1);
  EXPECT_EQ(f.inquirer.export_state(), twin.export_state());
  EXPECT_EQ(f.inquirer.echo(P(2)), first.reply_stamp);
  expect_holds(f.inquirer, full);
}

TEST(ReplyFrontier, AfterALostReplyTheChangedContentShipsAgain) {
  ReplyFixture f;
  const GgdMessage first = f.replier.answer(f.inquiry());
  f.deliver(f.inquirer, first);
  // 2 gains an in-edge from 6: its self row and V change.
  DependencyVector v6;
  v6.set(P(6), Timestamp::creation(1));
  (void)f.replier.receive(vector_msg(P(6), P(2), v6, {}), f.is_root, ++f.now);
  const GgdMessage lost = f.replier.answer(f.inquiry());
  ASSERT_FALSE(lost.current);
  ASSERT_GT(lost.reply_stamp, first.reply_stamp);
  EXPECT_FALSE(lost.self_row.get(P(6)).is_delta());
  // `lost` never arrives: the echo stays, so the next reply ships again.
  ASSERT_EQ(f.inquiry().echo, first.reply_stamp);
  const GgdMessage reply = f.replier.answer(f.inquiry());
  ASSERT_FALSE(reply.current);
  EXPECT_EQ(reply.v, lost.v);
  EXPECT_EQ(reply.self_row, lost.self_row);
  f.deliver(f.inquirer, reply);
  expect_holds(f.inquirer, reply);
  EXPECT_TRUE(f.replier.answer(f.inquiry()).current);
}

TEST(ReplyFrontier, AReorderedOldReplyNeitherLiftsTheEchoNorRegressesRows) {
  ReplyFixture f;
  const GgdMessage old_reply = f.replier.answer(f.inquiry());
  f.replier.new_local_event();  // a newer self row
  f.settle_replier();
  const GgdMessage new_reply = f.replier.answer(f.inquiry());
  ASSERT_LT(old_reply.reply_stamp, new_reply.reply_stamp);
  ASSERT_GT(new_reply.self_row.get(P(2)).index(),
            old_reply.self_row.get(P(2)).index());
  f.deliver(f.inquirer, new_reply);
  const GgdProcessSnapshot after_new = f.inquirer.export_state();
  f.deliver(f.inquirer, old_reply);
  EXPECT_EQ(f.inquirer.echo(P(2)), new_reply.reply_stamp);
  EXPECT_EQ(DependencyVector(f.inquirer.known_row(P(2))), new_reply.self_row);
  EXPECT_EQ(f.inquirer.export_state().history, after_new.history);
  EXPECT_TRUE(f.replier.answer(f.inquiry()).current);
}

TEST(ReplyFrontier, AMigratedReplierShipsFullContent) {
  ReplyFixture f;
  f.deliver(f.inquirer, f.replier.answer(f.inquiry()));
  ASSERT_TRUE(f.replier.answer(f.inquiry()).current);
  // The new incarnation cannot know what the old one shipped: it stamps
  // its content above every stamp it drew before.
  const std::uint64_t old_echo = f.inquirer.echo(P(2));
  f.replier.import_state(f.replier.export_state());
  const GgdMessage after = f.replier.answer(f.inquiry());
  ASSERT_FALSE(after.current);
  EXPECT_GT(after.reply_stamp, old_echo);
  EXPECT_EQ(after.v, f.replier.compute_v());
  f.deliver(f.inquirer, after);
  EXPECT_TRUE(f.replier.answer(f.inquiry()).current);
}

TEST(ReplyFrontier, AReplyThatShipsAFreshClosureStampsIt) {
  ReplyFixture f;
  // 2 drops 4's history: its V shrinks, but receive() has not closed it
  // again, so the V a reply ships is not the one 2 last closed.
  f.replier.decertify_row(P(4));
  const GgdMessage shrunk = f.replier.answer(f.inquiry());
  ASSERT_FALSE(shrunk.current);
  ASSERT_TRUE(shrunk.v.get(P(5)).is_delta());
  f.deliver(f.inquirer, shrunk);
  // 4's history comes back, and with it the V 2 closed before: that V was
  // never shipped here, so the next reply must ship it.
  (void)f.replier.receive(ReplyFixture::from4(), f.is_root, ++f.now);
  const GgdMessage grown = f.replier.answer(f.inquiry());
  ASSERT_FALSE(grown.current) << "3 holds the shrunk V only";
  EXPECT_FALSE(grown.v.get(P(5)).is_delta());
  f.deliver(f.inquirer, grown);
  expect_holds(f.inquirer, f.full_reply());
}

TEST(ReplyFrontier, ADecertifiedRowIsShippedAgain) {
  ReplyFixture f;
  f.deliver(f.inquirer, f.replier.answer(f.inquiry()));
  ASSERT_TRUE(f.replier.answer(f.inquiry()).current);
  // 3 drops what it knew of 2; its next inquiry asks for everything.
  f.inquirer.decertify_row(P(2));
  EXPECT_EQ(f.inquirer.echo(P(2)), 0u);
  const GgdMessage reply = f.replier.answer(f.inquiry());
  ASSERT_FALSE(reply.current);
  f.deliver(f.inquirer, reply);
  expect_holds(f.inquirer, reply);
}

TEST(DeltaSync, DuplicateDeltaBatchesAreIdempotent) {
  GgdProcess p(P(3), false);
  DependencyVector v;
  v.set(P(2), Timestamp::creation(1));
  v.set(P(1), Timestamp::creation(1));
  GgdMessage m = vector_msg(P(2), P(3), v, v);
  DependencyVector row9;
  row9.set(P(9), Timestamp::creation(2));
  row9.set(P(1), Timestamp::creation(1));
  m.rows.emplace(P(9), row9);
  m.row_revs.emplace(P(9), 7);

  (void)p.receive(m, roots({1}));
  const std::uint64_t rev_first = p.known_row(P(9)).stamp();
  ASSERT_GT(rev_first, 0u) << "the batched row was adopted";

  // Same batch again (duplicated packet): no state may move.
  (void)p.receive(m, roots({1}));
  EXPECT_EQ(p.known_row(P(9)).stamp(), rev_first)
      << "re-adopting identical content must not re-stamp";
}

// ---------------------------------------------------------------------------
// Protocol-level recovery (engine + simulated network).
// ---------------------------------------------------------------------------

NetworkConfig quiet_net(std::uint64_t seed) {
  return NetworkConfig{.min_latency = 1,
                       .max_latency = 3,
                       .drop_rate = 0.0,
                       .duplicate_rate = 0.0,
                       .seed = seed};
}

TEST(DeltaSync, CollectsAcrossAMigrationBounce) {
  Simulator sim;
  Network net(sim, quiet_net(21));
  GgdEngine eng(net);
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  eng.create_object(P(2), P(3), S(3));
  eng.send_own_ref(P(2), P(3));  // 2 -> 3 -> 2 cycle, held by the root
  ASSERT_TRUE(sim.run());

  // Bounce a cycle member across sites while its peers keep frontiers.
  ASSERT_TRUE(eng.migrate(P(3), S(9)));
  ASSERT_TRUE(sim.run());
  ASSERT_TRUE(eng.migrate(P(3), S(3)));
  ASSERT_TRUE(sim.run());

  eng.drop_ref(P(1), P(2));  // the cycle is now garbage
  ASSERT_TRUE(sim.run());
  for (int r = 0; r < 8 && eng.removed().size() < 2; ++r) {
    eng.periodic_sweep();
    ASSERT_TRUE(sim.run());
  }
  const std::set<ProcessId> removed(eng.removed().begin(),
                                    eng.removed().end());
  EXPECT_EQ(removed, (std::set<ProcessId>{P(2), P(3)}))
      << "the bounced member's reset frontiers must not stall the cycle";
}

TEST(DeltaSync, CollectsAfterTotalLossViaInquiries) {
  Simulator sim;
  Network net(sim, quiet_net(23));
  GgdEngine eng(net);
  eng.add_process(P(1), S(1), /*is_root=*/true);
  eng.create_object(P(1), P(2), S(2));
  eng.create_object(P(2), P(3), S(3));
  eng.send_own_ref(P(2), P(3));
  ASSERT_TRUE(sim.run());

  // Every control packet vanishes while the garbage is manufactured: the
  // optimistic sent watermarks advance with nothing delivered, so no relay
  // ships the lost rows again.
  net.set_drop_rate(1.0);
  eng.drop_ref(P(1), P(2));
  ASSERT_TRUE(sim.run());
  EXPECT_TRUE(eng.removed().empty()) << "nothing can conclude under loss";

  // Heal. The sweeps' inquiries fetch every row a walk lacks or must
  // confirm, and the sites re-emit owed destruction knowledge; the cycle
  // must still be collected.
  net.set_drop_rate(0.0);
  for (int r = 0; r < 10 && eng.removed().size() < 2; ++r) {
    eng.periodic_sweep();
    ASSERT_TRUE(sim.run());
  }
  const std::set<ProcessId> removed(eng.removed().begin(),
                                    eng.removed().end());
  EXPECT_EQ(removed, (std::set<ProcessId>{P(2), P(3)}));
}

}  // namespace
}  // namespace cgc
