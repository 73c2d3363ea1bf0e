// Golden passivity for the threaded runtime, plus a tier-1 smoke run.
//
// Single-threaded mode (one worker, nothing to race) routes through the
// pre-existing deterministic simulator stack, and these are the SAME
// golden workloads and hashes tests/wire/trace_golden_test.cpp pins: if
// adding the threaded runtime perturbed one wire byte, fate, or delivery
// time of the single-threaded path, these fail. (The threaded path itself
// is adjudicated by record/replay conformance, not by golden hashes — a
// real scheduler never reproduces an order.)
#include <gtest/gtest.h>

#include <cstdint>

#include "runtime_mt/harness.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "workload/builders.hpp"

namespace cgc {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_hash(const wire::WireTrace& t) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& p : t.packets()) {
    h = fnv(h, p.sent_at);
    h = fnv(h, p.from.value());
    h = fnv(h, p.to.value());
    h = fnv(h, p.bytes.size());
    for (std::uint8_t b : p.bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
    h = fnv(h, p.dropped ? 1 : 0);
    for (SimTime d : p.delivered_at) {
      h = fnv(h, d);
    }
  }
  return h;
}

void run_golden(std::uint64_t seed, double fault, std::size_t packets,
                std::uint64_t hash) {
  const wire::WireTrace trace = runtime_mt::run_single_threaded(
      Scenario::Config{
          .net = NetworkConfig{.min_latency = 1,
                               .max_latency = 4,
                               .drop_rate = fault,
                               .duplicate_rate = fault,
                               .seed = seed},
      },
      [seed](Scenario& s) {
        const ProcessId root = s.add_root();
        Rng rng(seed ^ 0x5eedULL);
        build_random_graph(s, root, 14, 10, rng);
        s.run();
        const auto elems = build_ring_with_subcycles(s, root, 6);
        s.run();
        s.drop_ref(root, elems.front());
        s.run_with_sweeps();
      });
  EXPECT_EQ(trace.size(), packets)
      << "single-threaded packet COUNT changed (seed " << seed << ")";
  EXPECT_EQ(trace_hash(trace), hash)
      << "single-threaded packet BYTES/ORDER changed (seed " << seed << ")";
}

TEST(ThreadedGolden, SingleThreadedModeIsByteIdenticalFaulty) {
  run_golden(99, 0.10, 1045, 0xb659f669696762f2ULL);
}

TEST(ThreadedGolden, SingleThreadedModeIsByteIdenticalFaultFree) {
  run_golden(7, 0.0, 826, 0x6583c685e51d3433ULL);
}

TEST(ThreadedGolden, SingleThreadedModeIsByteIdenticalLowFault) {
  run_golden(123456, 0.05, 1001, 0x603e941a6053983eULL);
}

// Tier-1 smoke: one clean and one faulty threaded run, recorded, replayed,
// adjudicated — the default `ctest` exercises the full threaded stack even
// without the fuzz label.
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
