// Budget-sliced sweeps through the threaded runtime. The test has no
// ctest label, so it runs in the default set and in CI's TSan job
// (`ctest -LE fuzz`): it is the only test that runs budgeted SiteNode
// sweeps on real threads under TSan.
//
// A finite sweep budget makes a worker's kSweep envelope expand into a
// chain of continuation envelopes — one slice each — that interleave with
// packet drains in the recorded schedule. This sweep checks that the
// whole record/replay contract survives the slicing: the replay executes
// one slice per recorded kSweep envelope and must regenerate every packet
// byte-identically, match the removal sequences, and keep oracle safety
// and completeness (the harness stretches its idle window past the
// generation table's longest period, so cold-row removals deferred by the
// generational filter still count as progress).
#include <gtest/gtest.h>

#include <cstdint>

#include "ggd/sweep.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace cgc {
namespace {

void sweep(std::uint64_t first_seed, std::uint64_t last_seed) {
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    ScenarioSpec spec = spec_from_seed(seed);
    spec.num_sites = 4;
    spec.w_migrate = 0;  // threaded mode supports no migration
    const std::vector<MutatorOp> ops = generate_trace(spec);
    runtime_mt::ThreadedConfig cfg;
    cfg.num_threads = 4;
    // Small enough that a site's sweep round regularly takes several
    // slices; varied so slice boundaries land at different phase offsets
    // across seeds. More rounds than the default: the generational filter
    // can defer a cold row's removal a full period.
    cfg.sweep_budget = 4 + seed % 7;
    cfg.sweep_rounds = 48;
    const ThreadedConformanceReport report =
        run_threaded_conformance(spec, ops, cfg);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << " budget " << cfg.sweep_budget << "\n"
        << report.summary();
    // The slicing must actually have happened: with a budget this small a
    // round over any populated site cannot fit one envelope, so the
    // schedule must contain more kSweep records than sites x rounds would
    // explain without continuations.
    std::size_t sweep_records = 0;
    for (const auto& rec : report.run.schedule) {
      if (rec.kind == runtime_mt::Envelope::Kind::kSweep) {
        ++sweep_records;
      }
    }
    EXPECT_GT(sweep_records, 0u) << "seed " << seed;
  }
}

TEST(ThreadedBudgetedSweeps, Shard0) { sweep(1, 8); }
TEST(ThreadedBudgetedSweeps, Shard1) { sweep(9, 16); }

}  // namespace
}  // namespace cgc
