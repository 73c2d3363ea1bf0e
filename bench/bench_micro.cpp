// Microbenchmarks for the per-message hot paths of a GGD process: the
// vector-time closure (ComputeV), the edge-precise reachability walk and
// the decoding of a control message. These bound the CPU cost a site pays
// per GGD message as structures grow. The RowTable kernels price the row
// tables' span policy (exact first spans for rows written whole).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "ggd/process.hpp"
#include "logkeeping/lazy_logkeeping.hpp"
#include "vclock/row_table.hpp"
#include "wire/messages.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

/// A process whose log knows a ring of `n` predecessors (worst case for
/// the closure: every history row contributes transitive entries). It
/// ends on a log-keeping event, so its V is stale and compute_v() runs
/// the closure.
GgdProcess make_loaded_process(std::size_t n) {
  GgdProcess p(P(1), false);
  LazyLogKeeping lk;
  for (std::size_t i = 2; i <= n + 1; ++i) {
    p.increment_log(p.id(), P(i));
    DependencyVector v;
    DependencyVector row;
    for (std::size_t j = 2; j <= n + 1; ++j) {
      v.set(P(j), Timestamp::creation(j));
      if ((i + j) % 3 == 0) {
        row.set(P(j), Timestamp::creation(j));
      }
    }
    GgdMessage m;
    m.from = P(i);
    m.to = P(1);
    m.v = v;
    m.self_row = row;
    (void)p.receive(m, [](ProcessId) { return false; });
  }
  p.new_local_event();
  return p;
}

void BM_ComputeV(benchmark::State& state) {
  GgdProcess p = make_loaded_process(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.compute_v());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputeV)->Range(4, 256)->Complexity();

/// The closure's shape on a cyclic-garbage workload: a few live in-edges
/// seed V, and `n` certified histories over one shared pool of ids each
/// name most of the pool. So almost every scanned entry ties an entry V
/// already holds, rows are expanded one after another, and V stays about
/// as small as one row. Some pool ids are dead, some entries are markers.
GgdProcess make_dense_process(std::size_t n) {
  GgdProcess p(P(1), /*is_root=*/true);
  const auto pool = [](std::size_t j) { return P(j + 2); };
  for (std::size_t i = 0; i < n; ++i) {
    GgdMessage reply;
    reply.from = pool(i);
    reply.to = P(1);
    reply.reply = true;
    for (std::size_t j = 0; j < n; ++j) {
      if ((i * 7 + j) % 5 == 0) {
        continue;
      }
      const std::uint64_t index = 1 + (i + j) % 3;
      reply.v.set(pool(j), (i + j) % 11 == 0 ? Timestamp::destruction(index)
                                             : Timestamp::creation(index));
    }
    (void)p.receive(reply, [](ProcessId) { return true; });
  }
  GgdMessage death;
  death.from = pool(n);
  death.to = P(1);
  death.reply = true;
  for (std::size_t j = 0; j < n; j += 13) {
    death.dead.insert(pool(j + 5));
  }
  (void)p.receive(death, [](ProcessId) { return true; });
  for (std::size_t j = 0; j < 3; ++j) {
    p.log().row(p.id()).set(pool(j * 3), Timestamp::creation(1));
  }
  return p;
}

void BM_ComputeVDense(benchmark::State& state) {
  const GgdProcess p =
      make_dense_process(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.compute_v());
  }
}
BENCHMARK(BM_ComputeVDense)->Arg(16)->Arg(64);

/// An inquiry answered by a quiescent process that holds deferred rows
/// for 16 third parties: nothing changed its V since its last receive(),
/// so the reply reuses that V instead of running the closure. The first
/// reply ships the replica rows; the timed ones ship none. The second
/// argument is whether the inquirer is a warm peer: 0, its echo is empty
/// and every reply ships V, the self row and all 16 deferred rows; 1, its
/// echo covers them, as on a settled peer, and the reply is a current
/// one that ships none of them.
void BM_ReplyCurrent(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GgdProcess p = make_loaded_process(n);
  LazyLogKeeping lk;
  for (std::size_t k = 0; k < 16; ++k) {
    lk.on_send_third_party_ref(p, P(n + 10 + k), P(2 + k % 4));
  }
  GgdMessage ping;
  ping.from = P(2);
  ping.to = P(1);
  ping.reply = true;
  ping.holds_receiver = true;
  (void)p.receive(ping, [](ProcessId) { return true; });
  GgdMessage inquiry;
  inquiry.from = P(2);
  inquiry.to = P(1);
  inquiry.inquiry = true;
  const GgdMessage first = p.make_reply(inquiry);
  if (state.range(1) != 0) {
    inquiry.echo = first.reply_stamp;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.make_reply(inquiry));
  }
}
BENCHMARK(BM_ReplyCurrent)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_WalkToRoot(benchmark::State& state) {
  GgdProcess p = make_loaded_process(static_cast<std::size_t>(state.range(0)));
  const auto is_root = [](ProcessId) { return false; };
  for (auto _ : state) {
    FlatSet<ProcessId> missing, evidence, consulted;
    benchmark::DoNotOptimize(p.walk_to_root(is_root, missing, evidence, consulted));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WalkToRoot)->Range(4, 256)->Complexity();

/// An inquiry reply as a cyclic-garbage workload ships it: a vector,
/// in-edge and behalf rows, deferred rows of third parties, a batch of
/// relayed rows with their revisions, acks, death knowledge and the
/// out-edge verdict on its receiver.
wire::WireMessage reply_message() {
  GgdMessage m;
  m.from = P(3);
  m.to = P(4);
  const auto row = [](std::uint64_t first, std::uint64_t n) {
    DependencyVector dv;
    for (std::uint64_t j = 0; j < n; ++j) {
      dv.set(P(first + 2 * j), j % 4 == 3 ? Timestamp::destruction(j + 1)
                                           : Timestamp::creation(1 + j % 3));
    }
    return dv;
  };
  m.v = row(2, 16);
  m.self_row = row(5, 4);
  m.behalf = row(9, 2);
  for (std::uint64_t q = 0; q < 3; ++q) {
    m.behalf_rows.emplace(P(20 + q), row(4 + q, 3));
  }
  for (std::uint64_t q = 0; q < 8; ++q) {
    m.rows.emplace(P(30 + q), row(2 + q, 13));
    m.row_revs.emplace(P(30 + q), 100 + q);
    m.row_acks.emplace(P(40 + q), 50 + q);
  }
  for (std::uint64_t q = 0; q < 5; ++q) {
    m.dead.insert(P(60 + 3 * q));
  }
  m.reply = true;
  m.holds_receiver = true;
  return wire::WireMessage{MessageKind::kGgdInquiry, wire::GgdControl{m}};
}

std::vector<std::uint8_t> encode_reply_message() {
  std::vector<std::uint8_t> bytes;
  wire::Encoder enc(bytes);
  wire::encode_message(enc, reply_message());
  return bytes;
}

/// Encoding the same reply into a reused buffer, as a batching channel
/// appends it to its pending packet.
void BM_EncodeGgdControl(benchmark::State& state) {
  const wire::WireMessage msg = reply_message();
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    wire::Encoder enc(bytes);
    wire::encode_message(enc, msg);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    bytes.size()));
}
BENCHMARK(BM_EncodeGgdControl);

/// Decoding one reply into a reused message, as the packet reader does.
void BM_DecodeGgdControl(benchmark::State& state) {
  const std::vector<std::uint8_t> bytes = encode_reply_message();
  wire::MessageDecoder reader;
  for (auto _ : state) {
    wire::Decoder dec(bytes);
    benchmark::DoNotOptimize(reader.decode(dec));
    benchmark::DoNotOptimize(&reader.message());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    bytes.size()));
}
BENCHMARK(BM_DecodeGgdControl);

void BM_TimestampMerge(benchmark::State& state) {
  const Timestamp a = Timestamp::creation(41);
  const Timestamp b = Timestamp::destruction(41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Timestamp::merge(a, b));
  }
}
BENCHMARK(BM_TimestampMerge);

void BM_VectorMerge(benchmark::State& state) {
  DependencyVector a;
  DependencyVector b;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    a.set(P(static_cast<std::uint64_t>(i)),
          Timestamp::creation(static_cast<std::uint64_t>(i + 1)));
    b.set(P(static_cast<std::uint64_t>(i + state.range(0) / 2)),
          Timestamp::creation(static_cast<std::uint64_t>(i + 2)));
  }
  for (auto _ : state) {
    DependencyVector c = a;
    c.merge(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VectorMerge)->Range(8, 512)->Complexity();

/// `n` entries for each of kTableRows rows: the content a table of
/// overlay or history rows receives.
constexpr std::uint64_t kTableRows = 256;

DependencyVector row_content(std::uint64_t n) {
  DependencyVector v;
  for (std::uint64_t e = 0; e < n; ++e) {
    v.set(P(1000 + 7 * e), Timestamp::creation(e + 1));
  }
  return v;
}

/// Reports the column slots a table held per live entry (1.0: no slack).
void count_slots(benchmark::State& state, const RowTable& t) {
  state.counters["slots_per_entry"] =
      static_cast<double>(t.column_slots()) /
      static_cast<double>(t.entry_count());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTableRows));
}

// A pooled table's life with rows written whole (a reply's overlay row,
// a certified history): each row is assigned, so its first span is exact.
void BM_RowTableAssign(benchmark::State& state) {
  const DependencyVector content =
      row_content(static_cast<std::uint64_t>(state.range(0)));
  const auto fill = [&content](RowTable& t) {
    for (std::uint64_t q = 1; q <= kTableRows; ++q) {
      t.row(P(q)) = content;
    }
  };
  Pool pool;
  for (auto _ : state) {
    RowTable t(&pool);
    fill(t);
    benchmark::DoNotOptimize(t.entry_count());
  }
  RowTable t;
  fill(t);
  count_slots(state, t);
}
BENCHMARK(BM_RowTableAssign)->Arg(1)->Arg(2)->Arg(8)->Arg(32);

// The same table with each row grown one entry at a time (a log row
// written by log-keeping): a 4-slot first span, doubled on relocation.
void BM_RowTableGrow(benchmark::State& state) {
  const DependencyVector content =
      row_content(static_cast<std::uint64_t>(state.range(0)));
  const auto fill = [&content](RowTable& t) {
    for (std::uint64_t q = 1; q <= kTableRows; ++q) {
      auto row = t.row(P(q));
      for (const auto& [p, ts] : content.entries()) {
        row.set(p, ts);
      }
    }
  };
  Pool pool;
  for (auto _ : state) {
    RowTable t(&pool);
    fill(t);
    benchmark::DoNotOptimize(t.entry_count());
  }
  RowTable t;
  fill(t);
  count_slots(state, t);
}
BENCHMARK(BM_RowTableGrow)->Arg(1)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
}  // namespace cgc

BENCHMARK_MAIN();
