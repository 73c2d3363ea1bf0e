// The "why is X not yet collected at tick T" explainer.
//
// Two layers: synthetic journals pin each individual cause's decision
// logic, and full observed replays of the three fuzz-minimized regression
// traces (seeds 14 / 73 / 235) pin the end-to-end causal answers — every
// collected object explains as already-collected with evidence, roots and
// live processes get the honest non-answer, and a lossy-network run walks
// through unconfirmed-destruction → already-collected as the fault heals.
// A last test pins that an observed replay is the run the conformance
// runner judges, verdict included.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "metrics/message_stats.hpp"
#include "obs/explain.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "wire/messages.hpp"
#include "workload/scenario.hpp"

namespace cgc {
namespace {

using obs::EventKind;
using obs::Explanation;
using Cause = Explanation::Cause;

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

/// Minimal engine with a root P(1) and a plain process P(2), for the
/// synthetic-journal cases (the journal, not engine state, is under test).
struct Rig {
  Simulator sim;
  Network net{sim, NetworkConfig{}};
  GgdEngine eng{net};
  obs::Journal journal;

  Rig() {
    eng.add_process(P(1), SiteId{0}, /*is_root=*/true);
    eng.add_process(P(2), SiteId{1}, /*is_root=*/false);
  }

  [[nodiscard]] Explanation explain(ProcessId x, SimTime at) const {
    return obs::explain_not_collected(journal, eng, x, at);
  }
};

TEST(Explain, UnknownProcess) {
  Rig r;
  EXPECT_EQ(r.explain(P(99), 10).cause, Cause::kUnknown);
}

TEST(Explain, RootIsNeverCollected) {
  Rig r;
  EXPECT_EQ(r.explain(P(1), 10).cause, Cause::kIsRoot);
}

TEST(Explain, ReclaimRecordWins) {
  Rig r;
  r.journal.record(30, SiteId{1}, EventKind::kReclaim, P(2));
  const Explanation e = r.explain(P(2), 40);
  EXPECT_EQ(e.cause, Cause::kAlreadyCollected);
  EXPECT_NE(e.answer.find("tick 30"), std::string::npos) << e.answer;
  ASSERT_FALSE(e.evidence.empty());
  EXPECT_NE(e.evidence.front().find("reclaim"), std::string::npos);
}

TEST(Explain, CondemnedRemovalNamesTheWalker) {
  Rig r;
  r.journal.record(30, SiteId{1}, EventKind::kReclaim, P(2));
  r.journal.record(30, SiteId{1}, EventKind::kCondemned, P(2), P(7));
  const Explanation e = r.explain(P(2), 40);
  EXPECT_EQ(e.cause, Cause::kAlreadyCollected);
  EXPECT_NE(e.answer.find("walker 7"), std::string::npos) << e.answer;
}

// The replay's per-field ledger, read back from the wire trace, accounts
// for exactly the control bytes the network charged as sent.
TEST(ExplainMetrics, TheControlByteLedgerSumsToTheBytesSent) {
  const auto replay = obs::replay_seed(20);
  std::uint64_t ledger = 0;
  for (std::size_t f = 0; f < wire::kGgdFieldCount; ++f) {
    ledger += replay->registry
                  .counter(std::string("ggd.ctrl_bytes.") +
                           wire::ggd_field_name(static_cast<wire::GgdField>(f)))
                  .value();
  }
  const MessageStats& stats = replay->scenario->net().stats();
  std::uint64_t sent = 0;
  for (MessageKind k : {MessageKind::kGgdVector, MessageKind::kGgdDestruction,
                        MessageKind::kGgdInquiry}) {
    sent += stats.of(k).bytes_sent;
  }
  EXPECT_GT(replay->registry.counter("ggd.ctrl_bytes.v").value(), 0u);
  EXPECT_EQ(ledger, sent);
}

// A condemned set travels the cascade unchanged, so every removal it
// causes is journaled with the walker whose own verdict started it: a
// process removed by its own walk, never by another condemned set.
TEST(ExplainRegression, CondemnedRemovalsNameTheirWalker) {
  const auto replay = obs::replay_seed(7);
  Scenario& s = *replay->scenario;
  std::set<ProcessId> condemned;
  std::set<ProcessId> walkers;
  replay->journal.for_each([&](const obs::Record& r) {
    if (r.kind == EventKind::kCondemned) {
      condemned.insert(r.a);
      walkers.insert(r.b);
    }
  });
  ASSERT_FALSE(condemned.empty());
  EXPECT_EQ(replay->registry.counter("ggd.removals_condemned").value(),
            condemned.size());
  for (ProcessId w : walkers) {
    EXPECT_FALSE(condemned.contains(w)) << w.str();
    EXPECT_TRUE(s.removed().contains(w)) << w.str();
  }
  const ProcessId p = *condemned.begin();
  const Explanation e = obs::explain_not_collected(
      replay->journal, s.engine(), p, s.sim().now(), &s.oracle());
  EXPECT_EQ(e.cause, Cause::kAlreadyCollected);
  EXPECT_NE(e.answer.find("without a walk of its own"), std::string::npos)
      << e.answer;
}

TEST(Explain, RecordsAfterTheQueryTickAreInvisible) {
  Rig r;
  r.journal.record(5, SiteId{}, EventKind::kSweepEnd, {}, {}, 10);
  r.journal.record(30, SiteId{1}, EventKind::kReclaim, P(2));
  // At tick 20 the reclaim has not happened yet; a sweep has run and said
  // nothing about P(2).
  EXPECT_EQ(r.explain(P(2), 20).cause, Cause::kNoEvidence);
  EXPECT_EQ(r.explain(P(2), 30).cause, Cause::kAlreadyCollected);
}

TEST(Explain, OpenMigrationFreezeWins) {
  Rig r;
  r.journal.record(8, SiteId{1}, EventKind::kMigrateFreeze, P(2), {}, 3);
  EXPECT_EQ(r.explain(P(2), 20).cause, Cause::kInTransitMigration);
  // Snapshot delivered: the migration is closed, and with no other
  // evidence (and no sweep yet) collection is simply awaiting a sweep.
  r.journal.record(12, SiteId{3}, EventKind::kMigrateDeliver, P(2), {}, 1);
  EXPECT_EQ(r.explain(P(2), 20).cause, Cause::kAwaitingSweep);
}

TEST(Explain, EmittedButUndeliveredDestruction) {
  Rig r;
  r.journal.record(10, SiteId{0}, EventKind::kDestructionEmit, P(1), P(2));
  EXPECT_EQ(r.explain(P(2), 20).cause, Cause::kUnconfirmedDestruction);
  // Once the destruction is confirmed delivered, nothing is owed — the
  // journal then holds no verdict about P(2), and no sweep has run.
  r.journal.record(15, SiteId{1}, EventKind::kDestructionDeliver, P(1), P(2));
  EXPECT_EQ(r.explain(P(2), 20).cause, Cause::kAwaitingSweep);
}

TEST(Explain, BlockedWalkWithAndWithoutInquiry) {
  Rig r;
  r.journal.record(10, SiteId{1}, EventKind::kWalkVerdict, P(2), {},
                   pack_walk(obs::WalkVerdict::kBlocked, 3, 1));
  EXPECT_EQ(r.explain(P(2), 20).cause, Cause::kAwaitingSweep);
  r.journal.record(11, SiteId{1}, EventKind::kInquiry, P(2), P(1));
  EXPECT_EQ(r.explain(P(2), 20).cause, Cause::kPendingInquiry);
}

TEST(Explain, ReachableWalkMeansBelievedReachable) {
  Rig r;
  r.journal.record(10, SiteId{1}, EventKind::kWalkVerdict, P(2), {},
                   pack_walk(obs::WalkVerdict::kReachable, 4, 0));
  EXPECT_EQ(r.explain(P(2), 20).cause, Cause::kBelievedReachable);
}

// -- End-to-end: lossy network, then healing. ------------------------------

TEST(Explain, LostDestructionThenHealedCollection) {
  obs::Registry reg;
  obs::Journal journal;
  Scenario s(Scenario::Config{.net = NetworkConfig{.min_latency = 1,
                                                   .max_latency = 2,
                                                   .drop_rate = 0,
                                                   .duplicate_rate = 0,
                                                   .seed = 17}});
  s.engine().attach_obs(&reg, &journal);
  const ProcessId root = s.add_root();
  const ProcessId a = s.create(root);
  const ProcessId b = s.create(a);
  ASSERT_TRUE(s.run());

  // Fault window: the severing fact is emitted and lost.
  s.net().set_drop_rate(1.0);
  s.drop_ref(root, a);
  ASSERT_TRUE(s.run());
  const Explanation lost = obs::explain_not_collected(
      journal, s.engine(), a, s.sim().now(), &s.oracle());
  EXPECT_EQ(lost.cause, Cause::kUnconfirmedDestruction) << lost.answer;

  // Heal; the sweep re-emits and the cascade collects a and b.
  s.net().set_drop_rate(0.0);
  ASSERT_TRUE(s.run_with_sweeps());
  EXPECT_TRUE(s.removed().contains(a));
  EXPECT_TRUE(s.removed().contains(b));
  const Explanation done = obs::explain_not_collected(
      journal, s.engine(), a, s.sim().now(), &s.oracle());
  EXPECT_EQ(done.cause, Cause::kAlreadyCollected) << done.answer;
}

// -- End-to-end: pinned regression traces, replayed observed. --------------

void check_replay_causality(std::uint64_t seed, bool expect_collections,
                            const std::vector<MutatorOp>& ops) {
  const ScenarioSpec spec = spec_from_seed(seed);
  const auto replay = obs::replay_trace(spec, ops);
  Scenario& s = *replay->scenario;
  const SimTime end = s.sim().now();
  ASSERT_TRUE(s.residual_garbage().empty()) << "seed " << seed;
  if (expect_collections) {
    ASSERT_FALSE(s.removed().empty()) << "seed " << seed;
  }

  const auto explain = [&](ProcessId p) {
    return obs::explain_not_collected(replay->journal, s.engine(), p, end,
                                      &s.oracle());
  };
  // Every collected object: the journal proves it, with evidence.
  for (ProcessId p : s.removed()) {
    const Explanation e = explain(p);
    EXPECT_EQ(e.cause, Cause::kAlreadyCollected)
        << "seed " << seed << " " << p.str() << ": " << e.answer;
    EXPECT_FALSE(e.evidence.empty());
  }
  // Roots and live processes get the honest non-answer.
  bool saw_live = false;
  for (ProcessId p : s.oracle().reachable()) {
    const Explanation e = explain(p);
    if (s.oracle().roots().contains(p)) {
      EXPECT_EQ(e.cause, Cause::kIsRoot) << "seed " << seed << " " << p.str();
    } else {
      saw_live = true;
      EXPECT_EQ(e.cause, Cause::kStillReachable)
          << "seed " << seed << " " << p.str() << ": " << e.answer;
    }
  }
  EXPECT_TRUE(saw_live) << "seed " << seed;
}

TEST(ExplainRegression, Seed14) {
  check_replay_causality(14, /*expect_collections=*/true, {
      {MutatorOp::Kind::kAddRoot, P(1), {}, {}},
      {MutatorOp::Kind::kCreate, P(4), P(1), {}},
      {MutatorOp::Kind::kLinkOwn, P(1), P(4), {}},
      {MutatorOp::Kind::kCreate, P(12), P(1), {}},
      {MutatorOp::Kind::kCreate, P(14), P(12), {}},
      {MutatorOp::Kind::kLinkThird, P(1), P(12), P(4)},
      {MutatorOp::Kind::kCreate, P(21), P(12), {}},
      {MutatorOp::Kind::kLinkOwn, P(4), P(21), {}},
      {MutatorOp::Kind::kDrop, P(1), P(4), {}},
      {MutatorOp::Kind::kCreate, P(28), P(21), {}},
      {MutatorOp::Kind::kCreate, P(29), P(14), {}},
      {MutatorOp::Kind::kCreate, P(33), P(1), {}},
      {MutatorOp::Kind::kLinkOwn, P(21), P(29), {}},
      {MutatorOp::Kind::kLinkOwn, P(14), P(28), {}},
      {MutatorOp::Kind::kCreate, P(44), P(33), {}},
      {MutatorOp::Kind::kLinkOwn, P(28), P(44), {}},
      {MutatorOp::Kind::kDrop, P(1), P(12), {}},
  });
}

// Seed 73's fault profile makes the engine skip the grant-dependent ops
// in the delivered-truth view, so nothing ever becomes garbage here: the
// correct causal answers are still_reachable / is_root, which is exactly
// what the explainer must say instead of inventing a stall.
TEST(ExplainRegression, Seed73) {
  check_replay_causality(73, /*expect_collections=*/false, {
      {MutatorOp::Kind::kAddRoot, P(1), {}, {}},
      {MutatorOp::Kind::kCreate, P(11), P(1), {}},
      {MutatorOp::Kind::kCreate, P(13), P(11), {}},
      {MutatorOp::Kind::kLinkOwn, P(11), P(13), {}},
      {MutatorOp::Kind::kCreate, P(14), P(1), {}},
      {MutatorOp::Kind::kLinkThird, P(1), P(14), P(11)},
      {MutatorOp::Kind::kDrop, P(1), P(11), {}},
      {MutatorOp::Kind::kLinkThird, P(11), P(1), P(13)},
      {MutatorOp::Kind::kDrop, P(14), P(11), {}},
  });
}

TEST(ExplainRegression, Seed235) {
  check_replay_causality(235, /*expect_collections=*/true, {
      {MutatorOp::Kind::kAddRoot, P(4), {}, {}},
      {MutatorOp::Kind::kCreate, P(5), P(4), {}},
      {MutatorOp::Kind::kCreate, P(7), P(5), {}},
      {MutatorOp::Kind::kLinkOwn, P(7), P(4), {}},
      {MutatorOp::Kind::kCreate, P(12), P(7), {}},
      {MutatorOp::Kind::kDrop, P(4), P(5), {}},
      {MutatorOp::Kind::kCreate, P(15), P(7), {}},
      {MutatorOp::Kind::kCreate, P(16), P(7), {}},
      {MutatorOp::Kind::kLinkOwn, P(4), P(12), {}},
      {MutatorOp::Kind::kCreate, P(17), P(12), {}},
      {MutatorOp::Kind::kLinkThird, P(12), P(17), P(4)},
      {MutatorOp::Kind::kLinkOwn, P(4), P(15), {}},
      {MutatorOp::Kind::kCreate, P(19), P(17), {}},
      {MutatorOp::Kind::kLinkOwn, P(17), P(7), {}},
      {MutatorOp::Kind::kCreate, P(20), P(16), {}},
      {MutatorOp::Kind::kDrop, P(17), P(4), {}},
      {MutatorOp::Kind::kLinkThird, P(12), P(4), P(17)},
      {MutatorOp::Kind::kCreate, P(29), P(7), {}},
      {MutatorOp::Kind::kCreate, P(30), P(29), {}},
      {MutatorOp::Kind::kDrop, P(4), P(7), {}},
  });
}

// -- cgc-explain replays the run cgc-fuzz judged. -------------------------

/// The observed replay and the conformance runner's robust GGD leg are one
/// run: they agree on what was removed and skipped, on the wire and on the
/// verdict. Seeds: paced (1), lossy (3), duplicating (4), burst (5) and
/// migration churn, burst (6) and paced (20).
TEST(ExplainReplay, AgreesWithTheConformanceRun) {
  for (std::uint64_t seed : {1, 3, 4, 5, 6, 20}) {
    const ScenarioSpec spec = spec_from_seed(seed);
    const std::vector<MutatorOp> ops = generate_trace(spec);
    const auto replay = obs::replay_trace(spec, ops);
    const ConformanceReport report = run_conformance(spec, ops);
    ASSERT_EQ(report.engines.front().name, "ggd_robust");
    const EngineRun& judged = report.engines.front();
    const EngineRun& replayed = replay->verdict;
    const std::string where = spec.describe();
    EXPECT_EQ(replayed.removed, judged.removed) << where;
    EXPECT_EQ(replay->scenario->removed(), judged.removed) << where;
    EXPECT_EQ(replayed.skipped_ops, judged.skipped_ops) << where;
    EXPECT_EQ(replayed.control_bytes, judged.control_bytes) << where;
    EXPECT_EQ(replayed.packets_sent, judged.packets_sent) << where;
    EXPECT_EQ(replay->trace.size(), judged.packets_sent) << where;
    EXPECT_EQ(replayed.failures, judged.failures) << where;
  }
}

}  // namespace
}  // namespace cgc
