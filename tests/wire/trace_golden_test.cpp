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
//
// Each workload also pins a content digest: every packet's times,
// endpoints and fate, and every decoded message field by field. A change
// to the framing alone re-records the byte hashes but must leave the
// digests and the packet counts as they are. Each also pins how many
// processes the run removed, so a change that is meant to move only bytes
// is held to the same collections.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <variant>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "wire/batching.hpp"
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

std::uint64_t hash_dv(std::uint64_t h, const DependencyVector& dv) {
  h = fnv(h, dv.size());
  for (const auto& [p, ts] : dv.entries()) {
    h = fnv(h, p.value());
    h = fnv(h, ts.index());
    h = fnv(h, ts.destroyed() ? 1 : 0);
  }
  return h;
}

std::uint64_t hash_set(std::uint64_t h, const FlatSet<ProcessId>& s) {
  h = fnv(h, s.size());
  for (ProcessId p : s) {
    h = fnv(h, p.value());
  }
  return h;
}

template <typename Map, typename HashValue>
std::uint64_t hash_map(std::uint64_t h, const Map& m, HashValue value) {
  h = fnv(h, m.size());
  for (const auto& [p, v] : m) {
    h = fnv(h, p.value());
    h = value(h, v);
  }
  return h;
}

/// Every field of one decoded control message, the reply frontier's
/// stamps included. Of a reply's out-edges it takes only whether they
/// include the receiver, the one bit the receiver reads.
std::uint64_t hash_control(std::uint64_t h, const GgdMessage& m) {
  const auto row = [](std::uint64_t acc, const DependencyVector& dv) {
    return hash_dv(acc, dv);
  };
  const auto u64 = [](std::uint64_t acc, std::uint64_t v) {
    return fnv(acc, v);
  };
  h = fnv(h, m.from.value());
  h = fnv(h, m.to.value());
  h = hash_dv(h, m.v);
  h = hash_dv(h, m.self_row);
  h = hash_dv(h, m.behalf);
  h = hash_map(h, m.behalf_rows, row);
  h = fnv(h, m.reply_stamp);
  h = fnv(h, m.echo);
  h = hash_map(h, m.rows, row);
  h = hash_map(h, m.row_revs, u64);
  h = hash_map(h, m.row_acks, u64);
  h = hash_set(h, m.dead);
  h = fnv(h, m.inquiry ? 1 : 0);
  h = fnv(h, m.reply ? 1 : 0);
  h = fnv(h, m.reply ? 1 : 0);
  h = fnv(h, m.reply && m.holds_receiver ? 1 : 0);
  h = fnv(h, m.current ? 1 : 0);
  return hash_set(h, m.condemned);
}

/// FNV-1a over every packet's send time, endpoints, drop fate and
/// per-copy delivery times, and over every decoded message field by
/// field. Unlike trace_hash it does not see how the fields are framed, so
/// a change to the encoding alone leaves it as it is.
std::uint64_t content_digest(const wire::WireTrace& t) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& p : t.packets()) {
    h = fnv(h, p.sent_at);
    h = fnv(h, p.from.value());
    h = fnv(h, p.to.value());
    h = fnv(h, p.dropped ? 1 : 0);
    for (SimTime d : p.delivered_at) {
      h = fnv(h, d);
    }
    wire::read_packet(
        p.bytes, [&h](const wire::PacketHeader& hdr) { h = fnv(h, hdr.count); },
        [&h](const wire::WireMessage& msg, std::size_t) {
          h = fnv(h, static_cast<std::uint64_t>(msg.kind));
          h = fnv(h, msg.body.index());
          if (const auto* c = std::get_if<wire::GgdControl>(&msg.body)) {
            h = hash_control(h, c->msg);
          } else if (const auto* r =
                         std::get_if<wire::RefTransfer>(&msg.body)) {
            h = fnv(h, r->transfer_id);
            h = fnv(h, r->recipient.value());
            h = fnv(h, r->subject.value());
          } else {
            ADD_FAILURE() << "no digest for body " << msg.body.index();
          }
        });
  }
  return h;
}

struct Golden {
  std::uint64_t seed;
  double fault;
  std::size_t packets;
  std::size_t removed;
  std::uint64_t hash;
  std::uint64_t digest;
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
  std::printf(
      "golden seed=%llu packets=%zu removed=%zu hash=0x%016llx "
      "digest=0x%016llx bytes=%llu\n",
      static_cast<unsigned long long>(golden.seed), trace.size(),
      s.removed().size(),
      static_cast<unsigned long long>(trace_hash(trace)),
      static_cast<unsigned long long>(content_digest(trace)),
      static_cast<unsigned long long>(total_bytes));
  EXPECT_EQ(trace.size(), golden.packets)
      << "packet COUNT changed vs the pre-refactor recording (seed "
      << golden.seed << ")";
  EXPECT_EQ(s.removed().size(), golden.removed)
      << "REMOVAL count changed (seed " << golden.seed
      << "): a change that only moves bytes collects exactly as before";
  EXPECT_EQ(trace_hash(trace), golden.hash)
      << "packet BYTES/ORDER changed vs the pre-refactor recording (seed "
      << golden.seed << ")";
  EXPECT_EQ(content_digest(trace), golden.digest)
      << "decoded message CONTENT, packet fates or times changed (seed "
      << golden.seed << "): a framing change alone never moves this digest";
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
  run_and_check({99, 0.10, 1045, 6, 0xb659f669696762f2ULL,
                 0x9d808f67c722eb1cULL});
}

TEST(TraceGolden, FaultFreeRunMatchesPreRefactorRecording) {
  run_and_check({7, 0.0, 826, 6, 0x6583c685e51d3433ULL,
                 0x06986f91ffa09e14ULL});
}

TEST(TraceGolden, LowFaultRunMatchesPreRefactorRecording) {
  run_and_check({123456, 0.05, 1001, 6, 0x603e941a6053983eULL,
                 0x34b3a5542eeda59aULL});
}

// Satellite guard for the observability PR: enabling the event journal
// and the metrics registry must not perturb a single wire byte, packet
// fate, or delivery time on any golden workload.
TEST(TraceGolden, JournalAndMetricsArePassive) {
  run_and_check({99, 0.10, 1045, 6, 0xb659f669696762f2ULL,
                 0x9d808f67c722eb1cULL}, /*observed=*/true);
  run_and_check({7, 0.0, 826, 6, 0x6583c685e51d3433ULL,
                 0x06986f91ffa09e14ULL}, /*observed=*/true);
  run_and_check({123456, 0.05, 1001, 6, 0x603e941a6053983eULL,
                 0x34b3a5542eeda59aULL},
                /*observed=*/true);
}

}  // namespace
}  // namespace cgc
