// Tier-1 threaded smoke runs, so the default `ctest` exercises the full
// threaded stack even without the fuzz label: one clean and one faulty
// run, recorded, replayed, adjudicated. The threaded path is judged by
// record/replay conformance, not by golden hashes — a real scheduler never
// reproduces an order; tests/wire/trace_golden_test.cpp pins the
// simulator's wire output.
#include <gtest/gtest.h>

#include <vector>

#include "runtime_mt/harness.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace cgc {
namespace {

TEST(ThreadedGolden, ThreadedSmokeCleanSeed1) {
  ScenarioSpec spec = spec_from_seed(1);
  spec.num_sites = 4;
  spec.w_migrate = 0;
  spec.drop_rate = 0.0;
  spec.duplicate_rate = 0.0;
  const std::vector<MutatorOp> ops = generate_trace(spec);
  runtime_mt::ThreadedConfig cfg;
  cfg.num_threads = 2;
  const ThreadedConformanceReport report =
      run_threaded_conformance(spec, ops, cfg);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.run.schedule.size(), ops.size())
      << "the threaded run should have processed packets beyond the ops";
  EXPECT_EQ(report.replay.removed, report.run.removed);
}

TEST(ThreadedGolden, ThreadedSmokeFaultySeed3) {
  ScenarioSpec spec = spec_from_seed(3);
  spec.num_sites = 4;
  spec.w_migrate = 0;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.1;
  const std::vector<MutatorOp> ops = generate_trace(spec);
  runtime_mt::ThreadedConfig cfg;
  cfg.num_threads = 4;
  cfg.reorder_rate = 0.2;
  const ThreadedConformanceReport report =
      run_threaded_conformance(spec, ops, cfg);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace cgc
