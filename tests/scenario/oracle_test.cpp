// The ground-truth oracle itself must be right, or every verdict built on
// it is worthless: reachability, time-travel queries, the WRC
// counting-collectable model, trace legality, and the generator's
// guarantees are each pinned here.
#include <gtest/gtest.h>

#include <sstream>

#include "oracle/reachability_oracle.hpp"
#include "scenario/minimize.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

TEST(ReachabilityOracle, TraceApplicationTracksReachability) {
  ReachabilityOracle o;
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kAddRoot, P(1), {}, {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(2), P(1), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(3), P(2), {}}));
  EXPECT_EQ(o.reachable(), (std::set<ProcessId>{P(1), P(2), P(3)}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kDrop, P(1), P(2), {}}));
  EXPECT_EQ(o.true_garbage(), (std::set<ProcessId>{P(2), P(3)}));
  EXPECT_FALSE(o.live(P(3)));
}

TEST(ReachabilityOracle, RejectsMutatorIllegalOps) {
  ReachabilityOracle o;
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kAddRoot, P(1), {}, {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(2), P(1), {}}));
  // Duplicate id.
  EXPECT_FALSE(o.apply({MutatorOp::Kind::kCreate, P(2), P(1), {}}));
  // Unknown creator.
  EXPECT_FALSE(o.apply({MutatorOp::Kind::kCreate, P(9), P(7), {}}));
  // Forwarding a reference the forwarder lacks.
  EXPECT_FALSE(o.apply({MutatorOp::Kind::kLinkThird, P(2), P(1), P(1)}));
  // Dropping a reference not held.
  EXPECT_FALSE(o.apply({MutatorOp::Kind::kDrop, P(2), P(1), {}}));
  // A garbage actor cannot act (its code never runs).
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kDrop, P(1), P(2), {}}));
  EXPECT_FALSE(o.apply({MutatorOp::Kind::kCreate, P(3), P(2), {}}));
}

TEST(ReachabilityOracle, GarbageIsStableUnderLegalOps) {
  // Because only live actors act and every granted subject is reachable
  // through its grantor, no legal op can resurrect garbage.
  ReachabilityOracle o;
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kAddRoot, P(1), {}, {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(2), P(1), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(3), P(1), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kDrop, P(1), P(2), {}}));
  ASSERT_FALSE(o.live(P(2)));
  // 3 (live) cannot link to 2: nobody live holds 2 any more, so no legal
  // op can produce an edge whose target is 2.
  EXPECT_FALSE(o.apply({MutatorOp::Kind::kLinkThird, P(1), P(3), P(2)}));
  EXPECT_FALSE(o.live(P(2)));
}

TEST(ReachabilityOracle, AnswersAtAnySimTime) {
  ReachabilityOracle o;
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kAddRoot, P(1), {}, {}}, 10));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(2), P(1), {}}, 20));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kDrop, P(1), P(2), {}}, 30));
  EXPECT_FALSE(o.reachable_at(15).contains(P(2)));
  EXPECT_TRUE(o.reachable_at(25).contains(P(2)));
  EXPECT_TRUE(o.garbage_at(25).empty());
  EXPECT_EQ(o.garbage_at(30), (std::set<ProcessId>{P(2)}));
}

TEST(ReachabilityOracle, CountingCollectableExcludesCyclePinnedGarbage) {
  ReachabilityOracle o;
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kAddRoot, P(1), {}, {}}));
  // Chain 1 -> 2 -> 3, plus a cycle 4 <-> 5 hanging off 3, plus 6 below
  // the cycle.
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(2), P(1), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(3), P(2), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(4), P(3), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(5), P(4), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kLinkOwn, P(4), P(5), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(6), P(5), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kDrop, P(1), P(2), {}}));
  // All of 2..6 are garbage; reference counting drains 2 and 3 (the
  // acyclic prefix) but the 4<->5 cycle pins itself and 6 below it.
  EXPECT_EQ(o.true_garbage(),
            (std::set<ProcessId>{P(2), P(3), P(4), P(5), P(6)}));
  EXPECT_EQ(o.counting_collectable(), (std::set<ProcessId>{P(2), P(3)}));
}

TEST(ReachabilityOracle, SafetyAndResidualVerdicts) {
  ReachabilityOracle o;
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kAddRoot, P(1), {}, {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(2), P(1), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kCreate, P(3), P(1), {}}));
  ASSERT_TRUE(o.apply({MutatorOp::Kind::kDrop, P(1), P(3), {}}));
  EXPECT_FALSE(o.safety_violations({P(2)}).empty()) << "2 is live";
  EXPECT_TRUE(o.safety_violations({P(3)}).empty());
  EXPECT_EQ(o.residual_garbage({}), (std::set<ProcessId>{P(3)}));
  EXPECT_TRUE(o.residual_garbage({P(3)}).empty());
}

TEST(ReachabilityOracle, NormalizeDropsIllegalRemnants) {
  // Cutting the create of 2 makes every op touching 2 illegal; normalize
  // keeps exactly the self-contained remainder.
  const std::vector<MutatorOp> ops = {
      {MutatorOp::Kind::kAddRoot, P(1), {}, {}},
      {MutatorOp::Kind::kCreate, P(3), P(1), {}},
      {MutatorOp::Kind::kLinkThird, P(1), P(2), P(3)},  // 1 fwd 2 -> 3
      {MutatorOp::Kind::kDrop, P(1), P(3), {}},
  };
  const auto kept = ReachabilityOracle::normalize(ops);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].kind, MutatorOp::Kind::kAddRoot);
  EXPECT_EQ(kept[1].kind, MutatorOp::Kind::kCreate);
  EXPECT_EQ(kept[2].kind, MutatorOp::Kind::kDrop);
}

TEST(Generator, TracesAreMutatorLegalAndDeterministic) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ScenarioSpec spec = spec_from_seed(seed);
    const auto ops = generate_trace(spec);
    EXPECT_FALSE(ops.empty()) << "seed " << seed;
    // Legal: replaying through the oracle accepts every op.
    ReachabilityOracle o;
    for (const MutatorOp& op : ops) {
      ASSERT_TRUE(o.apply(op)) << "seed " << seed;
    }
    // Deterministic: same seed, same trace.
    EXPECT_EQ(generate_trace(spec), ops) << "seed " << seed;
  }
}

TEST(Generator, ClassesShapeTheWorkload) {
  // Over a pool of seeds, cycle-heavy scenarios must produce more link
  // ops than tree-heavy ones, and tree-heavy ones more creates.
  std::size_t tree_creates = 0, tree_links = 0;
  std::size_t cycle_creates = 0, cycle_links = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const ScenarioSpec spec = spec_from_seed(seed);
    if (spec.cls != ScenarioClass::kTreeHeavy &&
        spec.cls != ScenarioClass::kCycleHeavy) {
      continue;
    }
    for (const MutatorOp& op : generate_trace(spec)) {
      const bool link = op.kind == MutatorOp::Kind::kLinkOwn ||
                        op.kind == MutatorOp::Kind::kLinkThird;
      const bool create = op.kind == MutatorOp::Kind::kCreate;
      if (spec.cls == ScenarioClass::kTreeHeavy) {
        tree_creates += create;
        tree_links += link;
      } else {
        cycle_creates += create;
        cycle_links += link;
      }
    }
  }
  EXPECT_GT(tree_creates, tree_links);
  EXPECT_GT(cycle_links, cycle_creates);
}

TEST(Minimizer, ShrinksToTheCulpritOps) {
  // Plant a synthetic failure: "process 4 ends up garbage". The minimal
  // trace is exactly its creation chain plus the severing drop.
  const ScenarioSpec spec = spec_from_seed(2);
  const auto ops = generate_trace(spec);
  ReachabilityOracle full;
  for (const MutatorOp& op : ops) {
    ASSERT_TRUE(full.apply(op));
  }
  // Pick a garbage process from the real trace so the predicate holds.
  const std::set<ProcessId> garbage = full.true_garbage();
  ASSERT_FALSE(garbage.empty());
  const ProcessId victim = *garbage.begin();

  auto fails = [&](const std::vector<MutatorOp>& candidate) {
    ReachabilityOracle o;
    for (const MutatorOp& op : candidate) {
      if (!o.apply(op)) {
        return false;
      }
    }
    return o.true_garbage().contains(victim);
  };
  ASSERT_TRUE(fails(ops));
  const auto minimal =
      minimize_trace(ops, fails, {.max_evaluations = 4000});
  EXPECT_TRUE(fails(minimal));
  EXPECT_LT(minimal.size(), ops.size());
  // 1-minimal: removing any single op (and normalizing) cures it.
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    std::vector<MutatorOp> cut = minimal;
    cut.erase(cut.begin() + static_cast<long>(i));
    EXPECT_FALSE(fails(ReachabilityOracle::normalize(cut)))
        << "op " << i << " is redundant";
  }
}

TEST(Minimizer, FormatsAPasteableRegressionTest) {
  const ScenarioSpec spec = spec_from_seed(5);
  const std::vector<MutatorOp> ops = {
      {MutatorOp::Kind::kAddRoot, P(1), {}, {}},
      {MutatorOp::Kind::kCreate, P(2), P(1), {}},
      {MutatorOp::Kind::kLinkThird, P(1), P(3), P(2)},
      {MutatorOp::Kind::kDrop, P(1), P(2), {}},
  };
  const std::string code = format_regression_test(spec, ops);
  EXPECT_NE(code.find("TEST(ScenarioRegression, Seed5)"), std::string::npos);
  EXPECT_NE(code.find("spec_from_seed(5ULL)"), std::string::npos);
  EXPECT_NE(code.find("run_conformance"), std::string::npos);
  EXPECT_NE(code.find("kLinkThird, P(1), P(3), P(2)"), std::string::npos);
  EXPECT_NE(code.find("report.ok()"), std::string::npos);
}

TEST(Minimizer, KeepsTheSafetyFailureOfItsOwnEngine) {
  // A report whose first failure is another engine's completeness gap:
  // the minimizer must keep the safety failure, not whichever comes
  // first, and another engine's safety failure is not the same bug.
  ConformanceReport report;
  report.engines.resize(2);
  report.engines[0].name = "wrc";
  report.engines[0].failures = {"COMPLETENESS: countable garbage { 9 }"};
  report.engines[1].name = "ggd_robust";
  report.engines[1].failures = {"COMPLETENESS: residual garbage { 4 }",
                                "SAFETY: proc 7 removed while reachable"};
  const FailureClass safety{"ggd_robust", "SAFETY"};
  EXPECT_EQ(report.primary_failure(), safety);
  EXPECT_TRUE(report.has_failure(safety));
  EXPECT_FALSE(report.has_failure({"wrc", "SAFETY"}));
  EXPECT_EQ(ConformanceReport{}.primary_failure(), std::nullopt);
}

TEST(Minimizer, FormattedOpsKeepTheirCommasOutsideComments) {
  const std::vector<MutatorOp> ops = {
      {MutatorOp::Kind::kAddRoot, P(1), {}, {}},
      {MutatorOp::Kind::kCreate, P(2), P(1), {}},
      {MutatorOp::Kind::kLinkOwn, P(2), P(1), {}},
      {MutatorOp::Kind::kLinkThird, P(1), P(3), P(2)},
      {MutatorOp::Kind::kDrop, P(1), P(2), {}},
      {MutatorOp::Kind::kMigrate, P(2), {}, {}, SiteId{3}},
  };
  std::istringstream lines(format_trace(ops));
  std::size_t n = 0;
  for (std::string line; std::getline(lines, line); ++n) {
    // Whatever a line comments, its code must end in the separating
    // comma, or the pasted initializer list does not compile.
    const std::string code = line.substr(0, line.find("//"));
    const std::size_t last = code.find_last_not_of(' ');
    ASSERT_NE(last, std::string::npos) << line;
    EXPECT_EQ(code[last], ',') << line;
  }
  EXPECT_EQ(n, ops.size());
}

}  // namespace
}  // namespace cgc
