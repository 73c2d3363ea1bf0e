// Budgeted-vs-unbounded sweep differential.
//
// The sweep scheduler must change WHEN the maintenance work happens, not
// WHAT gets collected: under any finite slice budget, safety (nothing
// live removed) and post-heal completeness (no residual garbage) must
// hold on every seed, and on fault-free fully-applied traces the
// reclaimed set must equal the unbounded run's exactly. 64 seeds cover
// every scenario class several times, migration churn included (the
// hand-off re-send phase is budget-sliced too).
//
// The wire output of an unbounded budget is pinned by the golden-trace
// hashes; the compat test here holds the backlog estimates of a budgeted
// run to the generation cap.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ggd/sweep.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "workload/scenario.hpp"

namespace cgc {
namespace {

std::string ids(const std::set<ProcessId>& s) {
  std::string out = "{";
  for (ProcessId p : s) {
    out += " " + p.str();
  }
  return out + " }";
}

std::string failures(const EngineRun& run) {
  std::string out;
  for (const std::string& f : run.failures) {
    out += "\n  " + f;
  }
  return out;
}

void differential(std::uint64_t first_seed, std::uint64_t last_seed) {
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const ScenarioSpec spec = spec_from_seed(seed);
    const std::vector<MutatorOp> ops = generate_trace(spec);
    // Vary the budget across seeds so slice boundaries land at different
    // phase offsets; small enough that every seed needs several slices
    // per round.
    const std::uint64_t budget = 8 + seed % 17;
    const EngineRun bounded =
        run_ggd(spec, ops, LogKeepingMode::kRobust, budget);
    EXPECT_TRUE(bounded.ok()) << "seed " << seed << " budget " << budget
                              << failures(bounded);
    const EngineRun unbounded = run_ggd(spec, ops, LogKeepingMode::kRobust);
    ASSERT_TRUE(unbounded.ok()) << "seed " << seed << failures(unbounded);
    // Identical mutation phases, so the applied-op sets must agree; the
    // removed-set equality below is only meaningful when they do.
    EXPECT_EQ(bounded.skipped_ops, unbounded.skipped_ops) << "seed " << seed;
    const bool fault_free =
        spec.drop_rate == 0.0 && spec.duplicate_rate == 0.0;
    if (fault_free && bounded.skipped_ops == unbounded.skipped_ops) {
      EXPECT_EQ(bounded.removed, unbounded.removed)
          << "seed " << seed << " budget " << budget << ": bounded reclaimed "
          << ids(bounded.removed) << " != unbounded "
          << ids(unbounded.removed);
    }
  }
}

TEST(SweepBudgetDifferential, Seeds1To16) { differential(1, 16); }
TEST(SweepBudgetDifferential, Seeds17To32) { differential(17, 32); }
TEST(SweepBudgetDifferential, Seeds33To48) { differential(33, 48); }
TEST(SweepBudgetDifferential, Seeds49To64) { differential(49, 64); }

/// A finite budget must leave the verdict machinery's estimates coherent:
/// after a budgeted run, every surviving process reports a backlog whose
/// slice estimate is positive and whose generation is within the cap.
TEST(SweepBudgetCompat, BacklogReportsStayWithinGenerationCap) {
  const ScenarioSpec spec = spec_from_seed(3);
  const std::vector<MutatorOp> ops = generate_trace(spec);
  Scenario s(ggd_config(spec, LogKeepingMode::kRobust));
  const EngineRun run = drive_ggd(s, spec, ops, 12);
  ASSERT_TRUE(run.ok()) << failures(run);
  for (const MutatorOp& op : ops) {
    if (op.kind != MutatorOp::Kind::kAddRoot &&
        op.kind != MutatorOp::Kind::kCreate) {
      continue;
    }
    const sweep::Backlog b = s.engine().sweep_backlog(op.a);
    EXPECT_LE(b.generation, sweep::GenerationTable::kMaxGen);
    EXPECT_LE(b.rounds_until_eligible, sweep::GenerationTable::kMaxPeriod);
    EXPECT_GE(b.estimated_slices, 1u);
  }
}

}  // namespace
}  // namespace cgc
