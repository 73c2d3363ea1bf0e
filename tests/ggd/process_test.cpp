// Unit tests for GgdProcess: Receive branches, the edge-precise walk, the
// closure, finalisation and idempotence — independent of any network.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ggd/process.hpp"
#include "reference_closure.hpp"
#include "logkeeping/lazy_logkeeping.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

std::function<bool(ProcessId)> roots(std::initializer_list<std::uint64_t> rs) {
  std::set<ProcessId> set;
  for (auto r : rs) {
    set.insert(P(r));
  }
  return [set](ProcessId p) { return set.contains(p); };
}

GgdMessage vector_msg(ProcessId from, ProcessId to, DependencyVector v,
                      DependencyVector row = {}) {
  GgdMessage m;
  m.from = from;
  m.to = to;
  m.v = std::move(v);
  m.self_row = std::move(row);
  return m;
}

TEST(GgdProcess, DestructionBranchCreatesLocalEvent) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));  // counter 1, slot 1 live

  DependencyVector v;
  v.set(P(1), Timestamp::destruction(1));
  auto out = p.receive(vector_msg(P(1), P(2), v), roots({1}));
  EXPECT_EQ(p.own_timestamp(), Timestamp::creation(2));
  EXPECT_TRUE(p.self_row().get(P(1)).destroyed());
  // No acquaintances: the removal cascade is empty, but the process is
  // removed (no live in-edges remain).
  EXPECT_TRUE(p.removed());
  EXPECT_TRUE(out.empty());
}

TEST(GgdProcess, StaleDestructionIsIgnored) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));
  lk.on_send_own_ref(p, P(1));  // slot 1 now at index 2

  DependencyVector v;
  v.set(P(1), Timestamp::destruction(1));  // older than the live edge
  (void)p.receive(vector_msg(P(1), P(2), v), roots({1}));
  EXPECT_FALSE(p.self_row().get(P(1)).destroyed());
  EXPECT_FALSE(p.removed());
}

TEST(GgdProcess, VectorMessageImpliesEdgeFromSender) {
  GgdProcess p(P(3), false);
  DependencyVector v;
  v.set(P(2), Timestamp::creation(5));
  v.set(P(1), Timestamp::creation(1));
  DependencyVector row;
  row.set(P(1), Timestamp::creation(1));
  row.set(P(2), Timestamp::creation(5));
  (void)p.receive(vector_msg(P(2), P(3), v, row), roots({1}));
  EXPECT_EQ(p.self_row().get(P(2)), Timestamp::creation(5));
  EXPECT_TRUE(p.row_certified(P(2)));
  EXPECT_FALSE(p.removed()) << "live root in the sender's account";
}

TEST(GgdProcess, ReplyDoesNotImplyAnEdge) {
  GgdProcess p(P(3), false);
  DependencyVector v;
  v.set(P(2), Timestamp::creation(5));
  GgdMessage m = vector_msg(P(2), P(3), v);
  m.reply = true;
  (void)p.receive(m, roots({1}));
  EXPECT_TRUE(p.self_row().get(P(2)).is_delta())
      << "a reply must not create a self-row edge fact";
  EXPECT_TRUE(p.row_certified(P(2)));
}

TEST(GgdProcess, WalkBlocksOnUnknownPredecessor) {
  GgdProcess p(P(3), false);
  LazyLogKeeping lk;
  lk.on_receive_ref(p, P(9));            // outgoing edge, irrelevant
  p.log().row(p.id()).increment(P(7));  // live in-edge from unknown 7
  FlatSet<ProcessId> missing, evidence, consulted;
  EXPECT_EQ(p.walk_to_root(roots({1}), missing, evidence, consulted),
            GgdProcess::WalkResult::kBlocked);
  EXPECT_TRUE(missing.contains(P(7)));
}

TEST(GgdProcess, WalkFollowsKnownRowsToRoot) {
  GgdProcess p(P(3), false);
  p.log().row(p.id()).increment(P(2));  // edge 2 -> 3
  // 2's row arrives: 2 has a live in-edge from root 1.
  DependencyVector v2;
  v2.set(P(1), Timestamp::creation(1));
  v2.set(P(2), Timestamp::creation(1));
  DependencyVector row2 = v2;
  (void)p.receive(vector_msg(P(2), P(3), v2, row2), roots({1}));
  FlatSet<ProcessId> missing, evidence, consulted;
  EXPECT_EQ(p.walk_to_root(roots({1}), missing, evidence, consulted),
            GgdProcess::WalkResult::kReachable);
}

TEST(GgdProcess, MultiEdgeMaskingIsPerEdge) {
  // The failure case that forced the edge-precise walk (see
  // GgdMessage::self_row):
  // root 1 holds TWO edges, drops only one. The destruction marker for
  // edge 1 -> 3 must not hide the other edge of process 1 living in a
  // replica row.
  GgdProcess p(P(3), false);
  p.log().row(p.id()).increment(P(2));  // edge 2 -> 3 (live)
  // 2's account: 2 is held by root 1 (1's other edge).
  DependencyVector v2;
  v2.set(P(1), Timestamp::creation(1));
  v2.set(P(2), Timestamp::creation(1));
  (void)p.receive(vector_msg(P(2), P(3), v2, v2), roots({1}));
  // Root drops its DIRECT edge to 3 with a much later index.
  DependencyVector e;
  e.set(P(1), Timestamp::destruction(9));
  (void)p.receive(vector_msg(P(1), P(3), e), roots({1}));

  EXPECT_FALSE(p.removed())
      << "E(9) for edge 1->3 must not mask live edge 1->2 at index 1";
  FlatSet<ProcessId> missing, evidence, consulted;
  EXPECT_EQ(p.walk_to_root(roots({1}), missing, evidence, consulted),
            GgdProcess::WalkResult::kReachable);
}

TEST(GgdProcess, DuplicateMessagesAreIdempotent) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));
  lk.on_receive_ref(p, P(5));

  DependencyVector v;
  v.set(P(1), Timestamp::destruction(2));
  const GgdMessage msg = vector_msg(P(1), P(2), v);
  auto out1 = p.receive(msg, roots({1}));
  const DependencyVector snapshot = p.self_row();
  const bool removed1 = p.removed();
  auto out2 = p.receive(msg, roots({1}));
  EXPECT_EQ(p.self_row(), snapshot);
  EXPECT_EQ(p.removed(), removed1);
  EXPECT_TRUE(out2.empty() || p.removed());
}

TEST(GgdProcess, RemovedProcessIgnoresEverything) {
  GgdProcess p(P(2), false);
  auto fin = p.remove_self();
  EXPECT_TRUE(p.removed());
  DependencyVector v;
  v.set(P(1), Timestamp::creation(1));
  EXPECT_TRUE(p.receive(vector_msg(P(1), P(2), v), roots({1})).empty());
}

TEST(GgdProcess, RemoveSelfSendsDestructionToEveryAcquaintance) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_receive_ref(p, P(3));
  lk.on_receive_ref(p, P(4));
  auto fin = p.remove_self();
  ASSERT_EQ(fin.size(), 2u);
  for (const GgdMessage& m : fin) {
    EXPECT_TRUE(m.is_destruction());
    EXPECT_TRUE(m.dead.contains(P(2))) << "death certificate rides along";
  }
}

/// Member 3 of a garbage list 2 <-> 3 <-> 4 that also holds live 9:
/// live in-edges from 2 and 4, whose rows 3 has never seen.
GgdProcess list_member() {
  GgdProcess p(P(3), false);
  LazyLogKeeping lk;
  p.log().row(p.id()).increment(P(2));
  p.log().row(p.id()).increment(P(4));
  lk.on_receive_ref(p, P(2));
  lk.on_receive_ref(p, P(4));
  lk.on_receive_ref(p, P(9));
  return p;
}

/// Walker 2's finalisation cascade towards `to`, carrying `condemned`.
GgdMessage cascade_from_2(ProcessId to, FlatSet<ProcessId> condemned) {
  GgdMessage msg;
  msg.from = P(2);
  msg.to = to;
  msg.v.set(P(2), Timestamp::destruction(1));
  msg.dead.insert(P(2));
  msg.condemned = std::move(condemned);
  return msg;
}

std::size_t inquiries_in(const std::vector<GgdMessage>& out) {
  std::size_t n = 0;
  for (const GgdMessage& m : out) {
    n += m.inquiry ? 1 : 0;
  }
  return n;
}

TEST(GgdProcess, CondemnedDestructionRemovesAMemberWithoutInquiries) {
  const FlatSet<ProcessId> condemned = {P(3), P(4)};
  GgdProcess p = list_member();
  const auto out = p.receive(cascade_from_2(P(3), condemned), roots({1}));
  EXPECT_TRUE(p.removed()) << "no walk, no confirmation round";
  EXPECT_EQ(inquiries_in(out), 0u);
  ASSERT_EQ(out.size(), 3u);
  for (const GgdMessage& m : out) {
    EXPECT_TRUE(m.is_destruction());
    // Only a member of the set can use it: 4 gets it, 2 and 9 do not.
    EXPECT_EQ(m.condemned,
              m.to == P(4) ? condemned : FlatSet<ProcessId>{})
        << "to " << m.to.str();
  }

  // Without the set, 4's unknown row blocks the same member's walk.
  GgdProcess twin = list_member();
  (void)twin.receive(cascade_from_2(P(3), {}), roots({1}));
  EXPECT_FALSE(twin.removed());
}

TEST(GgdProcess, RootOrCollectedProcessNamedInACondemnedSetIsUntouched) {
  GgdProcess root(P(1), true);
  root.log().row(root.id()).increment(P(2));
  const auto root_out =
      root.receive(cascade_from_2(P(1), {P(1), P(4)}), roots({1}));
  EXPECT_FALSE(root.removed());
  EXPECT_TRUE(root_out.empty());

  GgdProcess gone = list_member();
  (void)gone.remove_self();
  EXPECT_TRUE(
      gone.receive(cascade_from_2(P(3), {P(3), P(4)}), roots({1})).empty());
}

TEST(GgdProcess, ReceiverOutsideTheCondemnedSetDecidesAsBefore) {
  // Two receivers: one that blocks on an unknown row, and one whose only
  // in-edge the destruction kills, so its own walk removes it.
  const auto lone_holder = [] {
    GgdProcess p(P(3), false);
    LazyLogKeeping lk;
    p.log().row(p.id()).increment(P(2));
    lk.on_receive_ref(p, P(4));
    return p;
  };
  for (const auto& make : {std::function<GgdProcess()>(list_member),
                           std::function<GgdProcess()>(lone_holder)}) {
    GgdProcess named_others = make();
    GgdProcess plain = make();
    const auto a =
        named_others.receive(cascade_from_2(P(3), {P(4), P(7)}), roots({1}));
    const auto b = plain.receive(cascade_from_2(P(3), {}), roots({1}));
    EXPECT_EQ(a, b);
    ASSERT_EQ(named_others.removed(), plain.removed());
    if (!plain.removed()) {
      EXPECT_EQ(named_others.export_state(), plain.export_state());
    }
  }
}

TEST(GgdProcess, FinalisingWalkerShipsItsConsultedSet) {
  // Garbage cycle 2 <-> 3: walker 3 consults 2's row, confirms it with a
  // reply that postdates the suspicion, and condemns 2 in its cascade.
  GgdProcess p(P(3), false);
  LazyLogKeeping lk;
  p.log().row(p.id()).increment(P(2));
  lk.on_receive_ref(p, P(2));
  const auto reply_from_2 = [] {
    GgdMessage r;
    r.from = P(2);
    r.to = P(3);
    r.v.set(P(2), Timestamp::creation(1));
    r.v.set(P(3), Timestamp::creation(1));
    r.self_row = r.v;
    r.reply = true;
    r.holds_receiver = true;  // P(2) holds an edge to P(3)
    return r;
  };
  const auto first = p.receive(reply_from_2(), roots({1}), /*now=*/5);
  EXPECT_FALSE(p.removed()) << "the verdict begins pending at this reply";
  EXPECT_EQ(inquiries_in(first), 1u);
  const auto fin = p.receive(reply_from_2(), roots({1}), /*now=*/6);
  ASSERT_TRUE(p.removed());
  ASSERT_EQ(fin.size(), 1u);
  EXPECT_TRUE(fin[0].is_destruction());
  EXPECT_EQ(fin[0].condemned, FlatSet<ProcessId>{P(2)});
}

TEST(GgdProcess, DeadHoldersFinalBundleCompletesTheRemoval) {
  GgdProcess p(P(3), false);
  p.log().row(p.id()).increment(P(2));  // live in-edge from 2
  GgdMessage death;
  death.from = P(9);
  death.to = P(3);
  death.dead.insert(P(2));
  death.reply = true;
  const auto out = p.receive(death, roots({1}));
  // A relayed death certificate alone must NOT resolve the still-live
  // slot: the corpse's final destruction bundle may carry a deferred
  // rescue grant (§3.4). The process blocks and asks 2's site for the
  // posthumous bundle instead.
  EXPECT_FALSE(p.removed());
  bool asked = false;
  for (const GgdMessage& m : out) {
    asked = asked || (m.inquiry && m.to == P(2));
  }
  EXPECT_TRUE(asked) << "blocked walk must fetch the posthumous bundle";

  // The posthumous bundle arrives (no deferred grants): now the edge from
  // dead 2 is finally resolved and the process removes itself.
  GgdMessage bundle;
  bundle.from = P(2);
  bundle.to = P(3);
  bundle.v.set(P(2), Timestamp::destruction(5));
  bundle.dead.insert(P(2));
  (void)p.receive(bundle, roots({1}));
  EXPECT_TRUE(p.removed());
}

TEST(GgdProcess, ComputeVClosesOverHistories) {
  GgdProcess p(P(4), false);
  p.log().row(p.id()).increment(P(3));
  DependencyVector v3;
  v3.set(P(2), Timestamp::creation(1));
  v3.set(P(3), Timestamp::creation(1));
  GgdMessage m = vector_msg(P(3), P(4), v3, v3);
  (void)p.receive(m, roots({1}));
  const DependencyVector v = p.compute_v();
  EXPECT_FALSE(v.get(P(2)).is_delta()) << "transitive entry imported";
  EXPECT_FALSE(v.get(P(3)).is_delta());
}

// Every hosted process, tombstones included, is one GgdProcess object: at
// big_heap's ~21.5k processes each 100 B is 2 MB of RSS. The object holds
// four RowTables, so a per-column Pool* or a stamp column per table costs
// 4x; the walk diagnostics live in the host's sink.
#if defined(__x86_64__) && defined(__GLIBCXX__)
TEST(GgdProcess, ObjectFitsItsByteBudget) {
  EXPECT_LE(sizeof(GgdProcess), 1024u);
  EXPECT_LE(sizeof(RowTable), 112u);
}
#endif

// The footprint counts the object itself next to the blocks it owns, live
// or retired, so summed over an engine it is comparable with RSS.
TEST(GgdProcess, FootprintCountsTheProcessObject) {
  GgdProcess p(P(2), false);
  EXPECT_EQ(p.storage_footprint().object_bytes, sizeof(GgdProcess));
  EXPECT_GE(p.storage_footprint().total(), sizeof(GgdProcess));
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));
  const GgdProcess::StorageFootprint f = p.storage_footprint();
  EXPECT_EQ(f.total(), f.object_bytes + f.log_bytes + f.history_bytes +
                           f.known_bytes + f.behalf_bytes + f.relay_bytes +
                           f.gate_bytes);
  EXPECT_GT(f.log_bytes, 0u);
}

TEST(GgdProcess, TombstoneRetirementShedsWalkStateKeepsPosthumousWire) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));  // counter 1, slot 1 live

  // Populate the walk-side tables before death: a reply certifies
  // history, relayed rows and behalf rows fill the replica tables.
  DependencyVector rv;
  rv.set(P(1), Timestamp::creation(1));
  DependencyVector row7;
  row7.set(P(1), Timestamp::creation(1));
  GgdMessage fill = vector_msg(P(1), P(2), rv);
  fill.reply = true;
  fill.rows.emplace(P(7), row7);
  fill.row_revs.emplace(P(7), std::uint64_t{1});
  fill.behalf_rows.emplace(P(8), row7);
  (void)p.receive(fill, roots({1}));
  EXPECT_GT(p.storage_footprint().history_bytes, 0u);
  EXPECT_GT(p.storage_footprint().behalf_bytes, 0u);

  // Destroy the only in-edge: p removes itself. In production the
  // engine/site funnel retires the tombstone right after.
  DependencyVector d;
  d.set(P(1), Timestamp::destruction(1));
  (void)p.receive(vector_msg(P(1), P(2), d), roots({1}));
  ASSERT_TRUE(p.removed());
  p.retire_tombstone();

  const GgdProcess::StorageFootprint after = p.storage_footprint();
  EXPECT_EQ(after.history_bytes, 0u) << "certified history is never read "
                                        "posthumously";
  EXPECT_EQ(after.behalf_bytes, 0u) << "deferred behalf rows die with us";
  EXPECT_EQ(after.gate_bytes, 0u) << "inquiry gates are walk-only state";
  EXPECT_EQ(after.object_bytes, sizeof(GgdProcess))
      << "a tombstone still occupies its object";

  // The posthumous answer survives the shed: the re-issued death
  // certificate still carries the dead set and ships the retained replica
  // rows to a peer with an empty confirmed frontier.
  GgdMessage post = p.make_destruction_message(P(9));
  EXPECT_TRUE(post.dead.contains(P(2)));
  auto it = post.rows.find(P(7));
  ASSERT_NE(it, post.rows.end());
  EXPECT_EQ(it->second.get(P(1)), Timestamp::creation(1));
}

/// `target`'s answer to a bare inquiry from `inquirer`, as the site
/// answers it (a reply, or a collected target's final bundle again).
GgdMessage answer_inquiry(GgdProcess& target, ProcessId inquirer) {
  GgdMessage inq;
  inq.from = inquirer;
  inq.to = target.id();
  inq.inquiry = true;
  return target.answer(inq);
}

TEST(GgdProcess, AnsweringAnInquiryInternsNoLogRow) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(1));             // self row: live slot 1
  lk.on_send_third_party_ref(p, P(5), P(6));  // deferred row for 5
  const std::size_t rows = std::as_const(p).log().size();
  ASSERT_EQ(rows, 2u);

  // Inquirers 3, 4 and 7 have no row here; answering must not make one.
  for (std::uint64_t q : {3, 4, 7}) {
    const GgdMessage reply = answer_inquiry(p, P(q));
    EXPECT_TRUE(reply.reply);
    EXPECT_TRUE(reply.behalf_rows.contains(P(5)));
  }
  EXPECT_EQ(std::as_const(p).log().size(), rows);

  DependencyVector d;
  d.set(P(1), Timestamp::destruction(1));
  (void)p.receive(vector_msg(P(1), P(2), d), roots({1}));
  ASSERT_TRUE(p.removed());
  p.retire_tombstone();
  const std::size_t tomb_rows = std::as_const(p).log().size();
  for (std::uint64_t q : {3, 4, 7, 8}) {
    const GgdMessage post = answer_inquiry(p, P(q));
    EXPECT_TRUE(post.dead.contains(P(2)));
  }
  EXPECT_EQ(std::as_const(p).log().size(), tomb_rows)
      << "posthumous answers must not grow a tombstone's log";
}

TEST(GgdProcess, SendPathsInternNoLogRow) {
  GgdProcess p(P(3), false);
  LazyLogKeeping lk;
  lk.on_receive_ref(p, P(9));           // acquaintance 9, row 9 at slot 3
  lk.on_send_own_ref(p, P(7));          // live in-edge from unknown 7
  const std::size_t rows = std::as_const(p).log().size();
  (void)p.take_forwards();              // to 9
  (void)p.make_announce(P(4));
  (void)p.make_destruction_message(P(6));
  const std::vector<GgdMessage> out = p.decide(roots({1}), true);
  ASSERT_FALSE(out.empty());            // the blocked walk inquires 7
  EXPECT_TRUE(out.front().inquiry);
  EXPECT_EQ(std::as_const(p).log().size(), rows);
}

TEST(GgdProcess, AnnounceCarriesFreshVector) {
  GgdProcess p(P(2), false);
  LazyLogKeeping lk;
  lk.on_receive_ref(p, P(7));  // counter bumps AFTER any cached V
  const GgdMessage ann = p.make_announce(P(7));
  EXPECT_EQ(ann.v.get(P(2)).index(), p.own_timestamp().index())
      << "announce must reflect the acquisition it reports";
  EXPECT_FALSE(ann.reply);
}

// ---- compute_v() and decide() against references ------------------------

/// Indexes from a narrow range, so equal-index ties are common; one entry
/// in four is a destruction marker.
Timestamp random_ts(Rng& rng) {
  const std::uint64_t index = rng.between(1, 4);
  return rng.chance(0.25) ? Timestamp::destruction(index)
                          : Timestamp::creation(index);
}

DependencyVector random_row(Rng& rng, std::uint64_t universe,
                            std::uint64_t max_entries) {
  DependencyVector row;
  const std::uint64_t n = rng.below(max_entries + 1);
  for (std::uint64_t i = 0; i < n; ++i) {
    row.set(P(rng.between(1, universe)), random_ts(rng));
  }
  return row;
}

/// A root (roots never decide, so receive() cannot remove it) with random
/// certified histories, death knowledge and self row over a small
/// universe: cyclic histories, seeded/history ties, markers on both sides
/// and dead subjects named inside live histories are all frequent.
GgdProcess random_closure_state(std::uint64_t seed) {
  constexpr std::uint64_t kUniverse = 10;
  Rng rng(seed);
  GgdProcess p(P(1), /*is_root=*/true);
  const std::uint64_t histories = rng.between(1, 8);
  for (std::uint64_t i = 0; i < histories; ++i) {
    GgdMessage reply;
    reply.from = P(rng.between(2, kUniverse));
    reply.to = P(1);
    reply.reply = true;
    reply.v = random_row(rng, kUniverse, 6);
    (void)p.receive(reply, roots({}));
  }
  // Death arrives last: a dead subject's own history is purged, but the
  // entries naming it inside other histories stay.
  GgdMessage death;
  death.from = P(kUniverse + 1);
  death.to = P(1);
  death.reply = true;
  for (std::uint64_t q = 2; q <= kUniverse; ++q) {
    if (rng.chance(0.2)) {
      death.dead.insert(P(q));
    }
  }
  (void)p.receive(death, roots({}));
  p.log().row(p.id()) = random_row(rng, kUniverse, 8);
  return p;
}

/// The closure's shape on cyclic-garbage workloads: 12-16 certified
/// histories of at least 12 entries each, all over one shared pool of 18
/// ids, so nearly every scanned entry meets an entry V already holds and
/// V grows by merging row after row. Dead pool ids stay named inside live
/// histories, and the self row seeds destruction markers that the
/// histories tie with or supersede.
GgdProcess random_dense_closure_state(std::uint64_t seed) {
  constexpr std::uint64_t kPool = 18;
  Rng rng(seed);
  GgdProcess p(P(1), /*is_root=*/true);
  const std::uint64_t histories = rng.between(12, 16);
  for (std::uint64_t i = 0; i < histories; ++i) {
    GgdMessage reply;
    reply.from = P(rng.between(2, kPool + 1));
    reply.to = P(1);
    reply.reply = true;
    while (reply.v.size() < 12) {
      reply.v.set(P(rng.between(1, kPool + 1)), random_ts(rng));
    }
    (void)p.receive(reply, roots({}));
  }
  GgdMessage death;
  death.from = P(kPool + 2);
  death.to = P(1);
  death.reply = true;
  for (std::uint64_t q = 2; q <= kPool + 1; ++q) {
    if (rng.chance(0.15)) {
      death.dead.insert(P(q));
    }
  }
  (void)p.receive(death, roots({}));
  DependencyVector self_row;
  for (int k = 0; k < 6; ++k) {
    const std::uint64_t index = rng.between(1, 4);
    self_row.set(P(rng.between(1, kPool + 1)),
                 k % 2 == 0 ? Timestamp::destruction(index)
                            : Timestamp::creation(index));
  }
  p.log().row(p.id()) = self_row;
  return p;
}

TEST(GgdProcess, ComputeVMatchesReferenceClosureOnRandomStates) {
  ClosureCoverage cov;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const GgdProcess p = random_closure_state(seed);
    ASSERT_EQ(p.compute_v(), reference_compute_v(p, cov)) << "seed " << seed;
  }
  EXPECT_GT(cov.live_ties, 0u);
  EXPECT_GT(cov.marker_ties, 0u);
  EXPECT_GT(cov.dead_in_history, 0u);
  EXPECT_GT(cov.repushes, 0u);

  ClosureCoverage dense;
  std::size_t rows = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const GgdProcess p = random_dense_closure_state(seed);
    rows += p.history().size();
    ASSERT_EQ(p.compute_v(), reference_compute_v(p, dense))
        << "dense seed " << seed;
  }
  EXPECT_GE(rows, 500u * 8) << "histories of dead subjects are purged, "
                               "but most must remain";
  EXPECT_GT(dense.live_ties, 0u);
  EXPECT_GT(dense.marker_ties, 0u);
  EXPECT_GT(dense.dead_in_history, 0u);
  EXPECT_GT(dense.repushes, 0u);
}

/// A non-root with random in-edges, relayed replica rows, relayed and own
/// deferred grants over a small universe whose root is P(1): depending on
/// the seed its walk reaches the root, blocks or proves it unreachable.
GgdProcess random_walk_state(std::uint64_t seed) {
  constexpr std::uint64_t kUniverse = 8;
  Rng rng(seed);
  GgdProcess p(P(2), /*is_root=*/false);
  for (int i = 0; i < 3; ++i) {
    p.log().row(p.id()).set(P(rng.between(1, kUniverse)), random_ts(rng));
  }
  GgdMessage relay;
  relay.from = P(kUniverse + 1);
  relay.to = P(2);
  relay.reply = true;
  for (std::uint64_t q = 1; q <= kUniverse; ++q) {
    if (rng.chance(0.6)) {
      relay.rows.emplace(P(q), random_row(rng, kUniverse, 4));
      relay.row_revs.emplace(P(q), std::uint64_t{1});
    }
    if (rng.chance(0.3)) {
      relay.behalf_rows.emplace(P(q), random_row(rng, kUniverse, 2));
    }
    if (q != 2 && rng.chance(0.2)) {
      p.log().row(P(q)) = random_row(rng, kUniverse, 2);
    }
  }
  (void)p.receive(relay, roots({1}), /*now=*/1);
  return p;
}

TEST(GgdProcess, DecideOnReusedScratchMatchesFreshThreadTwins) {
  const auto is_root = roots({1});
  std::size_t inquiries = 0;
  std::size_t removals = 0;
  for (std::uint64_t seed = 1; seed <= 400; seed += 2) {
    // Two processes decide in turn, each leaving its working sets in
    // this thread's scratch for the other to reuse...
    std::vector<std::vector<GgdMessage>> got;
    std::vector<DependencyVector> got_v;
    {
      GgdProcess a = random_walk_state(seed);
      GgdProcess b = random_walk_state(seed + 1);
      // Each decision runs as a sweep scan does: gates reset first.
      for (SimTime now = 2; now < 4; ++now) {
        a.reset_inquiry_gates();
        got.push_back(a.decide(is_root, /*allow_inquiry=*/true, now));
        b.reset_inquiry_gates();
        got.push_back(b.decide(is_root, /*allow_inquiry=*/true, now));
      }
      got_v = {a.compute_v(), b.compute_v()};
      removals += (a.removed() ? 1 : 0) + (b.removed() ? 1 : 0);
    }
    // ...and each must match a twin built and decided alone, each twin on
    // a thread of its own whose scratch starts out empty.
    std::vector<std::vector<GgdMessage>> want(got.size());
    std::vector<DependencyVector> want_v(2);
    for (std::size_t k = 0; k < 2; ++k) {
      std::thread([&, k] {
        GgdProcess twin = random_walk_state(seed + k);
        for (SimTime now = 2; now < 4; ++now) {
          twin.reset_inquiry_gates();
          want[2 * (now - 2) + k] =
              twin.decide(is_root, /*allow_inquiry=*/true, now);
        }
        want_v[k] = twin.compute_v();
      }).join();
    }
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(got_v, want_v) << "seed " << seed;
    for (const auto& out : got) {
      for (const GgdMessage& m : out) {
        inquiries += m.inquiry ? 1 : 0;
      }
    }
  }
  EXPECT_GT(inquiries, 0u);
  EXPECT_GT(removals, 0u);
}

}  // namespace
}  // namespace cgc
