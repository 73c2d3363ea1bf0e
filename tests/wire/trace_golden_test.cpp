// Determinism lock across representation changes.
//
// The dense-core refactor (FlatMap dependency vectors, interned DV-log
// rows, the 4-ary event heap) promises that NOTHING wire-observable
// moved: same packets, same bytes, same fault fates, same times. These
// golden hashes were recorded by running the exact workloads below on the
// pre-refactor tree (std::map vectors, std::priority_queue scheduler); a
// mismatch means a change perturbed message contents or ordering — not
// merely an internal representation.
//
// If a FUTURE change intentionally alters the wire protocol or event
// ordering, re-record the constants and say so in the commit: this test
// is the tripwire that makes such changes explicit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "workload/builders.hpp"
#include "workload/scenario.hpp"

namespace cgc {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over every packet's full observable record: send time,
/// endpoints, exact bytes, drop fate, and per-copy delivery times.
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

struct Golden {
  std::uint64_t seed;
  double fault;
  std::size_t packets;
  std::uint64_t hash;
};

void run_and_check(const Golden& golden, bool observed = false) {
  Scenario s(Scenario::Config{
      .net = NetworkConfig{.min_latency = 1,
                           .max_latency = 4,
                           .drop_rate = golden.fault,
                           .duplicate_rate = golden.fault,
                           .seed = golden.seed},
  });
  // Observability passivity guard: with the journal and registry attached
  // the hashes below must STILL match the pre-refactor recording — the
  // instruments may watch the protocol but never touch the wire.
  obs::Registry registry;
  obs::Journal journal;
  if (observed) {
    s.engine().attach_obs(&registry, &journal);
  }
  wire::WireTrace trace;
  s.net().set_trace(&trace);
  const ProcessId root = s.add_root();
  Rng rng(golden.seed ^ 0x5eedULL);
  build_random_graph(s, root, 14, 10, rng);
  s.run();
  const auto elems = build_ring_with_subcycles(s, root, 6);
  s.run();
  s.drop_ref(root, elems.front());
  s.run_with_sweeps();
  // Recording aid: when a deliberate wire change re-records these
  // constants, the commit message documents the byte-level diff.
  std::uint64_t total_bytes = 0;
  for (const auto& p : trace.packets()) {
    total_bytes += p.bytes.size();
  }
  std::printf("golden seed=%llu packets=%zu hash=0x%016llx bytes=%llu\n",
              static_cast<unsigned long long>(golden.seed), trace.size(),
              static_cast<unsigned long long>(trace_hash(trace)),
              static_cast<unsigned long long>(total_bytes));
  EXPECT_EQ(trace.size(), golden.packets)
      << "packet COUNT changed vs the pre-refactor recording (seed "
      << golden.seed << ")";
  EXPECT_EQ(trace_hash(trace), golden.hash)
      << "packet BYTES/ORDER changed vs the pre-refactor recording (seed "
      << golden.seed << ")";
  if (observed) {
    // A passivity check against an instrument that recorded nothing would
    // be vacuous.
    EXPECT_GT(journal.recorded(), 0u);
    EXPECT_GT(registry.counter("ggd.walks").value(), 0u);
    // decide() is the only inquiry source and names one reason per
    // inquiry, so the per-reason counters partition ggd.inquiries.
    std::uint64_t by_reason = 0;
    for (const char* reason : {"reverify", "confirm", "blocked", "lease"}) {
      by_reason +=
          registry.counter(std::string("ggd.inquiries.") + reason).value();
    }
    EXPECT_GT(registry.counter("ggd.inquiries").value(), 0u);
    EXPECT_EQ(by_reason, registry.counter("ggd.inquiries").value());
  }
}

TEST(TraceGolden, FaultyRunMatchesPreRefactorRecording) {
  run_and_check({99, 0.10, 1048, 0xd414314519911994ULL});
}

TEST(TraceGolden, FaultFreeRunMatchesPreRefactorRecording) {
  run_and_check({7, 0.0, 867, 0x3aed83723fba8f33ULL});
}

TEST(TraceGolden, LowFaultRunMatchesPreRefactorRecording) {
  run_and_check({123456, 0.05, 1001, 0x020f27a14984d213ULL});
}

// Satellite guard for the observability PR: enabling the event journal
// and the metrics registry must not perturb a single wire byte, packet
// fate, or delivery time on any golden workload.
TEST(TraceGolden, JournalAndMetricsArePassive) {
  run_and_check({99, 0.10, 1048, 0xd414314519911994ULL}, /*observed=*/true);
  run_and_check({7, 0.0, 867, 0x3aed83723fba8f33ULL}, /*observed=*/true);
  run_and_check({123456, 0.05, 1001, 0x020f27a14984d213ULL},
                /*observed=*/true);
}

}  // namespace
}  // namespace cgc
