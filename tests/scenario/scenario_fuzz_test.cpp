// Scenario-fuzz conformance sweep (ctest label: fuzz).
//
// Each seed deterministically derives a full `ScenarioSpec` (class,
// workload mix, fault profile, batching, pacing), generates a
// mutator-legal trace, and runs it through the differential conformance
// harness: our GGD (robust, and paper-exact where its contract applies)
// plus the three baselines, each adjudicated by the ground-truth
// reachability oracle for safety and completeness, and cross-checked
// against each other on fault-free scenarios.
//
// On failure the seed is delta-debugged to a 1-minimal op sequence and
// printed as a ready-to-paste regression test; the same text is written
// to fuzz_artifacts/ (uploaded by CI).
//
// Reproducing a failure locally:
//   ctest -R scenario_fuzz --output-on-failure
// then paste the printed TEST() into a *_test.cpp, or re-run just the
// seed via run_conformance(spec_from_seed(SEED), generate_trace(...)).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "scenario/minimize.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace cgc {
namespace {

void sweep(std::uint64_t first_seed, std::uint64_t last_seed) {
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const ScenarioSpec spec = spec_from_seed(seed);
    const std::vector<MutatorOp> ops = generate_trace(spec);
    const ConformanceReport report = run_conformance(spec, ops);
    if (report.ok()) {
      continue;
    }
    // Shrink before reporting: the minimized trace IS the bug report.
    const std::vector<MutatorOp> minimal =
        minimize_trace(ops, same_failure(spec, *report.primary_failure()),
                       {.max_evaluations = 300});
    const std::string regression = format_regression_test(spec, minimal);
    std::error_code ec;
    std::filesystem::create_directories("fuzz_artifacts", ec);
    std::ofstream artifact("fuzz_artifacts/seed_" + std::to_string(seed) +
                           ".txt");
    artifact << report.summary() << "\n\n" << regression;
    ADD_FAILURE() << report.summary() << "\n--- minimized ("
                  << minimal.size() << " ops) ---\n"
                  << regression;
  }
}

// 256 seeds across the seven scenario classes (the six legacy classes on
// their historical seed mapping, migration churn on seeds ≡ 6 mod 7).
// Split into 32-seed shards so a failure pinpoints its range quickly,
// slow machines see progress, and the sanitizer CI job can run exactly
// one shard as its time-budgeted slice — every shard contains four or
// five migration-churn seeds.
TEST(ScenarioFuzz, Shard0) { sweep(1, 32); }
TEST(ScenarioFuzz, Shard1) { sweep(33, 64); }
TEST(ScenarioFuzz, Shard2) { sweep(65, 96); }
TEST(ScenarioFuzz, Shard3) { sweep(97, 128); }
TEST(ScenarioFuzz, Shard4) { sweep(129, 160); }
TEST(ScenarioFuzz, Shard5) { sweep(161, 192); }
TEST(ScenarioFuzz, Shard6) { sweep(193, 224); }
TEST(ScenarioFuzz, Shard7) { sweep(225, 256); }

}  // namespace
}  // namespace cgc
