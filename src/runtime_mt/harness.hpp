// The threaded execution mode, end to end.
//
// `run_threaded` drives a ScenarioSpec workload through N worker threads
// (one site each, share-nothing except the transport), records the total
// delivery order the scheduler actually produced, and returns everything
// a conformance check needs: the merged input schedule, the linearized
// send records, the per-site removal sequences, and a finalized WireTrace
// artifact for offline minimizing.
//
// `replay_threaded` then re-executes that recorded schedule through the
// existing deterministic simulator — fresh SiteNodes, events at
// time = global sequence number — and adjudicates:
//
//   * byte conformance: every packet the replay regenerates must be
//     byte-identical, in per-site send order, to the recorded one (and
//     none may be missing or extra) — the SiteNode determinism contract;
//   * op conformance: each op's applied/skipped verdict must match;
//   * removal conformance: per-site removal sequences must match exactly;
//   * oracle safety: no process removed while reachable (tripwire at the
//     removal instant plus the final-state check);
//   * oracle completeness: no residual garbage after the healed sweeps.
//
// The oracle is fed delivered-truth at replay time — edges materialize at
// reference delivery, so a dropped packet never creates one — which is
// the same ground-truth discipline the simulator-based fuzzer uses.
//
// Threaded runs are always robust-mode: the scheduler reorders freely,
// and paper-exact log-keeping's conformance contract excludes reordering.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "metrics/message_stats.hpp"
#include "runtime_mt/worker.hpp"
#include "scenario/spec.hpp"
#include "wire/concurrent_trace.hpp"
#include "workload/ops.hpp"

namespace cgc::runtime_mt {

struct ThreadedConfig {
  /// Worker threads == sites. Placement is id mod num_threads.
  std::uint64_t num_threads = 4;
  /// Sender-side one-slot-pocket overtake probability (the sim has no
  /// reorder fault; the threaded transport adds it).
  double reorder_rate = 0.0;
  /// Max healed sweep rounds; stops after 2 rounds with no progress.
  std::size_t sweep_rounds = 16;
  /// Hard cap on processed envelopes — a runaway-cascade backstop.
  std::uint64_t max_envelopes = 4'000'000;
  /// Wall-clock limit on each quiescence wait before the run aborts.
  std::uint64_t watchdog_ms = 60'000;
  /// Outbound coalescing budgets: a worker defers shipping its assembled
  /// packets until the pending framed bytes or the consumed-input count
  /// reach these, or its mailbox goes idle. `coalesce_max_ops = 1`
  /// reproduces the old flush-per-envelope behavior.
  std::uint64_t coalesce_max_bytes = 4'096;
  std::uint64_t coalesce_max_ops = 16;
  /// Per-slice sweep budget (scheduler work units). Unbounded keeps one
  /// kSweep envelope == one full round; a finite budget splits a round
  /// into continuation envelopes the schedule records, so the replay
  /// re-executes the identical slicing.
  std::uint64_t sweep_budget = sweep::kUnbounded;
};

struct ThreadedRun {
  std::uint64_t num_sites = 0;
  /// Every consumed input across all sites, sorted by the global dequeue
  /// sequence — the total order the replay re-executes.
  std::vector<InputRecord> schedule;
  /// Every sent packet in mutex-linearization order; `InputRecord.packet_id`
  /// indexes into this.
  std::vector<wire::ConcurrentTraceRecorder::SentPacket> packets;
  /// The same capture folded into the ordinary trace format — what a
  /// failing seed dumps for the ddmin minimizer.
  wire::WireTrace trace;
  std::vector<std::vector<ProcessId>> removed_by_site;
  std::set<ProcessId> removed;
  std::size_t skipped_ops = 0;
  std::uint64_t envelopes = 0;
  MessageStats stats;
  /// The budget the live workers sliced with — the replay must use the
  /// same value for its per-record sweep_slice calls.
  std::uint64_t sweep_budget = sweep::kUnbounded;
  /// Watchdog / envelope-cap trips. Empty on a healthy run.
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Live threaded execution of `ops` under `spec`'s fault profile (drop /
/// duplicate rates; latency is the scheduler's choice). Phases: inject
/// all ops, quiesce, heal the network, sweep to fixpoint, stop, join.
[[nodiscard]] ThreadedRun run_threaded(const ScenarioSpec& spec,
                                       const std::vector<MutatorOp>& ops,
                                       const ThreadedConfig& cfg = {});

struct ReplayVerdict {
  std::set<ProcessId> removed;
  std::size_t packets_checked = 0;
  std::size_t true_garbage = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Deterministic re-execution of a recorded run (see file comment).
[[nodiscard]] ReplayVerdict replay_threaded(const std::vector<MutatorOp>& ops,
                                            const ThreadedRun& run);

}  // namespace cgc::runtime_mt
