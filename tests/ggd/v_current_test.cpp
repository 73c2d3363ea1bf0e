// The reused V: GgdProcess keeps the last closure it computed and serves
// it again while the closure's inputs (self row, certified histories,
// death knowledge) are unchanged. Every test here holds compute_v() to the
// reference closure, which always recomputes: one test per write that can
// change an input, and a per-event differential over generated scenarios
// on the simulator host.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ggd/process.hpp"
#include "reference_closure.hpp"
#include "logkeeping/lazy_logkeeping.hpp"
#include "obs/metrics.hpp"
#include "scenario/spec.hpp"
#include "workload/scenario.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

constexpr auto all_roots = [](ProcessId) { return true; };

/// A root (roots never decide, so receive() only merges and closes V)
/// whose closures are counted.
GgdProcess observed_root(std::uint64_t id) {
  GgdProcess p(P(id), /*is_root=*/true);
  p.set_observed(true);
  return p;
}

DependencyVector dv(std::initializer_list<std::pair<std::uint64_t, Timestamp>>
                        entries) {
  DependencyVector v;
  for (const auto& [q, ts] : entries) {
    v.set(P(q), ts);
  }
  return v;
}

GgdMessage vector_from(std::uint64_t from, std::uint64_t to,
                       DependencyVector v) {
  GgdMessage m;
  m.from = P(from);
  m.to = P(to);
  m.v = std::move(v);
  return m;
}

GgdMessage reply_from(std::uint64_t from, std::uint64_t to,
                      DependencyVector v) {
  GgdMessage m = vector_from(from, to, std::move(v));
  m.reply = true;
  return m;
}

Timestamp C(std::uint64_t i) { return Timestamp::creation(i); }
Timestamp E(std::uint64_t i) { return Timestamp::destruction(i); }

/// V is current: compute_v() serves it without a closure, and it is the
/// reference closure of the current state.
void expect_reused(GgdProcess& p) {
  (void)p.take_v_closures();
  EXPECT_EQ(p.compute_v(), reference_compute_v(p));
  EXPECT_EQ(p.take_v_closures(), 0u) << "V should have been reused";
}

/// After a write to a closure input: compute_v() must recompute, and
/// agree with the reference.
void expect_recomputed(GgdProcess& p) {
  (void)p.take_v_closures();
  EXPECT_EQ(p.compute_v(), reference_compute_v(p));
  EXPECT_EQ(p.take_v_closures(), 1u) << "a stale V was served";
}

TEST(VCurrent, NoOpReceiveAndReplyReuseTheClosure) {
  GgdProcess p = observed_root(1);
  p.log().self_row().set(P(3), C(1));
  const GgdMessage msg = reply_from(3, 1, dv({{4, C(1)}}));
  (void)p.receive(msg, all_roots);
  EXPECT_EQ(p.take_v_closures(), 1u);
  (void)p.receive(msg, all_roots);  // a duplicate changes no input
  EXPECT_EQ(p.take_v_closures(), 0u);
  const GgdMessage reply = p.make_reply(P(3));
  EXPECT_EQ(p.take_v_closures(), 0u);
  EXPECT_EQ(reply.v, reference_compute_v(p));
  EXPECT_FALSE(reply.v.get(P(4)).is_delta());
}

TEST(VCurrent, MutatorWriteThroughLogInvalidates) {
  GgdProcess p = observed_root(1);
  // P(5)'s certified history is known, but nothing reaches us from P(5)
  // yet, so V leaves it unexpanded.
  (void)p.receive(reply_from(5, 1, dv({{6, C(2)}})), all_roots);
  expect_reused(p);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(5));  // P(5) now holds us: a live slot
  expect_recomputed(p);
  EXPECT_FALSE(p.compute_v().get(P(6)).is_delta());
}

TEST(VCurrent, AbsorbedRegrantInvalidates) {
  GgdProcess p = observed_root(1);
  (void)p.receive(vector_from(3, 1, dv({{3, C(2)}, {4, C(1)}})), all_roots);
  (void)p.receive(vector_from(3, 1, dv({{3, E(3)}})), all_roots);
  expect_reused(p);
  ASSERT_TRUE(p.compute_v().get(P(4)).is_delta()) << "marker masks P(3)";
  // A deferred grant below the marker resurrects slot 3, which makes
  // P(3)'s history count again.
  p.absorb_edge_facts(dv({{3, C(1)}}), P(9));
  expect_recomputed(p);
  EXPECT_FALSE(p.compute_v().get(P(4)).is_delta());
}

TEST(VCurrent, DecertifiedRowInvalidates) {
  GgdProcess p = observed_root(1);
  (void)p.receive(vector_from(3, 1, dv({{3, C(1)}, {4, C(1)}})), all_roots);
  expect_reused(p);
  p.decertify_row(P(3));
  expect_recomputed(p);
  EXPECT_TRUE(p.compute_v().get(P(4)).is_delta());
}

TEST(VCurrent, ImportedStateInvalidates) {
  GgdProcess p = observed_root(1);
  (void)p.receive(vector_from(3, 1, dv({{3, C(1)}, {4, C(1)}})), all_roots);
  expect_reused(p);
  // The wire's snapshot carries a self row the snapshot's V predates.
  GgdProcessSnapshot snap = p.export_state();
  snap.log_rows.find(P(1))->second.set(P(5), C(1));
  p.import_state(snap);
  expect_recomputed(p);
  EXPECT_FALSE(p.compute_v().get(P(5)).is_delta());
}

TEST(VCurrent, DeathLearnedFromTheDeadSetAloneInvalidates) {
  GgdProcess p = observed_root(1);
  p.log().self_row().set(P(3), C(1));
  (void)p.receive(reply_from(3, 1, dv({{4, C(1)}, {5, C(1)}})), all_roots);
  expect_reused(p);
  // A message whose only news is a death certificate.
  GgdMessage death = reply_from(6, 1, {});
  death.dead.insert(P(4));
  (void)p.receive(death, all_roots);
  expect_reused(p);  // receive() closed V again
  EXPECT_TRUE(p.compute_v().get(P(4)).is_delta());
  EXPECT_FALSE(p.compute_v().get(P(5)).is_delta());
}

TEST(VCurrent, HistoryMergeThatChangesTheRowInvalidates) {
  // A reply: the row merges into P(3)'s history, the self row is
  // untouched.
  GgdProcess p = observed_root(1);
  p.log().self_row().set(P(3), C(1));
  (void)p.receive(reply_from(3, 1, dv({{4, C(1)}})), all_roots);
  (void)p.take_v_closures();
  (void)p.receive(reply_from(3, 1, dv({{4, C(2)}, {5, C(1)}})), all_roots);
  EXPECT_EQ(p.take_v_closures(), 1u);
  expect_reused(p);
  EXPECT_EQ(p.compute_v().get(P(4)), C(2));

  // A vector forward whose own slot is unchanged: only the history moves.
  GgdProcess q = observed_root(1);
  (void)q.receive(vector_from(3, 1, dv({{3, C(1)}, {4, C(1)}})), all_roots);
  (void)q.take_v_closures();
  (void)q.receive(vector_from(3, 1, dv({{3, C(1)}, {4, C(2)}})), all_roots);
  EXPECT_EQ(q.take_v_closures(), 1u);
  expect_reused(q);
  EXPECT_EQ(q.compute_v().get(P(4)), C(2));
}

// ---- per-event differential over generated scenarios -------------------

struct DifferentialStats {
  std::size_t events = 0;
  std::size_t checks = 0;
  std::size_t reused = 0;
};

/// Holds every live process's compute_v() to the reference closure.
void check_every_process(GgdEngine& engine, DifferentialStats& st,
                         const std::string& where) {
  for (ProcessId id : engine.process_ids()) {
    GgdProcess& p = engine.process(id);
    if (p.removed()) {
      continue;
    }
    (void)p.take_v_closures();
    const DependencyVector got = p.compute_v();
    st.reused += p.take_v_closures() == 0 ? 1 : 0;
    ++st.checks;
    ASSERT_EQ(got, reference_compute_v(p)) << where << ", process " << id.str();
  }
}

/// Steps the scenario's simulator one event at a time, at most `limit`
/// events, checking every process after each. Returns false if the
/// simulator was still busy after `limit` events.
bool step_and_check(Scenario& s, std::uint64_t limit, DifferentialStats& st,
                    const std::string& where) {
  for (std::uint64_t k = 0; k < limit; ++k) {
    if (!s.sim().step()) {
      return true;
    }
    ++st.events;
    check_every_process(s.engine(), st, where);
    if (::testing::Test::HasFatalFailure()) {
      return true;
    }
  }
  return false;
}

/// Drives one generated scenario the way the conformance runner does
/// (mutation under the spec's faults and pacing, then heal and sweeps),
/// checking every process after every mutator op and every event.
void run_differential(std::uint64_t seed, DifferentialStats& st) {
  const ScenarioSpec spec = spec_from_seed(seed);
  const std::vector<MutatorOp> ops = generate_trace(spec);
  obs::Registry reg;  // outlives the engine, which caches its counters
  Scenario s(Scenario::Config{.net = spec.net_config(),
                              .mode = LogKeepingMode::kRobust,
                              .num_sites = spec.num_sites});
  // Observed processes count their closures, which is how a check tells a
  // reused V from a recomputed one.
  s.engine().attach_obs(&reg, nullptr);
  constexpr std::uint64_t kDrainLimit = 2'000'000;
  Rng burst_rng(seed * 0x2545f4914f6cdd1dULL + 1);
  const std::string where = spec.describe();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (void)s.apply(ops[i]);
    check_every_process(s.engine(), st, where + " after op " +
                                            std::to_string(i));
    const std::uint64_t burst =
        spec.paced ? kDrainLimit : burst_rng.below(48);
    const bool drained = step_and_check(s, burst, st, where);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(drained || !spec.paced) << where << ": did not quiesce";
  }
  ASSERT_TRUE(step_and_check(s, kDrainLimit, st, where));
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  s.net().set_drop_rate(0.0);
  s.net().set_duplicate_rate(0.0);
  for (int round = 0; round < 4; ++round) {
    s.engine().periodic_sweep();
    check_every_process(s.engine(), st, where + " after a sweep");
    ASSERT_TRUE(step_and_check(s, kDrainLimit, st, where));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

TEST(VCurrent, EveryEventOfGeneratedScenariosServesTheReferenceClosure) {
  DifferentialStats st;
  std::set<ScenarioClass> classes;
  // Seeds 1-14 cover every class. Of seeds 1-300, 22 and 52 are
  // two of the few on which a build that skipped the invalidation for a
  // newly learned death served a stale V; they keep that mutation caught
  // here as well as by its unit test above.
  std::vector<std::uint64_t> seeds = {22, 52};
  for (std::uint64_t seed = 1; seed <= 14; ++seed) {
    seeds.push_back(seed);
  }
  for (std::uint64_t seed : seeds) {
    classes.insert(spec_from_seed(seed).cls);
    run_differential(seed, st);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  EXPECT_EQ(classes.size(), static_cast<std::size_t>(ScenarioClass::kCount))
      << "every scenario class, faulty_lossy and migration included";
  EXPECT_GT(st.events, 10'000u);
  // Most checks must be served from the reused V, or this test would not
  // exercise it.
  EXPECT_GT(st.reused * 2, st.checks);
}

}  // namespace
}  // namespace cgc
