// "Why is object X not yet collected at tick T?"
//
// The explainer answers the question every residual-garbage report begs:
// it replays a workload with the journal enabled and walks the journal
// BACKWARDS from tick T — the most recent evidence about a process decides
// its state. Causes it can distinguish, most decisive first:
//
//   already collected     a kReclaim record for X at or before T
//   is a root             roots are never collected
//   still reachable       the ground-truth oracle says X is not garbage
//   in-transit migration  newest freeze/deliver pair is an open freeze —
//                         X is frozen mid-hand-off; even sweeps skip it
//   unconfirmed destr.    some edge-destruction naming X was emitted but
//                         never delivered (lost packet; sweep will re-emit)
//   pending inquiry       X's newest walk was blocked/unreachable and an
//                         inquiry is out chasing the missing evidence
//   awaiting sweep        X's newest walk stalled and nothing is in
//                         flight — only the next periodic sweep retries
//                         (or: no sweep has ever run)
//   believed reachable    X's newest walk verdict was "reachable" — its
//                         replicated evidence still claims a live path
//
// Used by the `cgc-explain` CLI and by regression tests that pin the
// causal answer on minimized fuzz traces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ggd/engine.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "oracle/reachability_oracle.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "wire/trace.hpp"
#include "workload/scenario.hpp"

namespace cgc::obs {

struct Explanation {
  enum class Cause : std::uint8_t {
    kUnknown,                 // no such process
    kAlreadyCollected,
    kIsRoot,
    kStillReachable,          // requires the ground-truth oracle
    kBelievedReachable,       // the engine's own evidence says live
    kInTransitMigration,
    kUnconfirmedDestruction,
    kPendingInquiry,
    kAwaitingSweep,
    kNoEvidence,              // journal holds nothing about X
  };

  Cause cause = Cause::kUnknown;
  /// One-sentence causal answer.
  std::string answer;
  /// The newest journal records about X (formatted), newest first.
  std::vector<std::string> evidence;
};

[[nodiscard]] const char* to_string(Explanation::Cause c);

/// Answers "why is `x` not yet collected at tick `at`" from the journal
/// (records after `at` are ignored). `truth` is optional: with it the
/// explainer can distinguish "still reachable, correctly so" from
/// "believed reachable on possibly-stale evidence".
[[nodiscard]] Explanation explain_not_collected(
    const Journal& journal, const GgdEngine& engine, ProcessId x, SimTime at,
    const ReachabilityOracle* truth = nullptr);

/// A scenario re-run with full observability attached: the conformance
/// runner's GGD leg itself (`drive_ggd`, so the same pacing, seeds, fault
/// schedule and verdict — observability is passive), plus a journal,
/// metrics registry and recorded WireTrace to interrogate afterwards.
struct SeedReplay {
  ScenarioSpec spec;
  std::vector<MutatorOp> ops;
  Journal journal{std::size_t{1} << 16};
  Registry registry;
  wire::WireTrace trace;
  std::unique_ptr<Scenario> scenario;
  /// The run's verdict: removed set, skipped ops, wire accounting and the
  /// SAFETY / COMPLETENESS lines cgc-fuzz reports for this run.
  EngineRun verdict;

  SeedReplay() = default;
  SeedReplay(const SeedReplay&) = delete;             // engine holds pointers
  SeedReplay& operator=(const SeedReplay&) = delete;  // into journal/registry
};

/// Runs `ops` under `spec` through `drive_ggd` on a robust-mode Scenario,
/// observed. Returned by pointer: the engine keeps pointers into the
/// replay's journal/registry. The registry also gets the run's per-field
/// control byte ledger, `ggd.ctrl_bytes.<field>` (one counter per
/// wire::GgdField), read from the trace.
[[nodiscard]] std::unique_ptr<SeedReplay> replay_trace(
    const ScenarioSpec& spec, const std::vector<MutatorOp>& ops);

/// Convenience: spec_from_seed + generate_trace + replay_trace.
[[nodiscard]] std::unique_ptr<SeedReplay> replay_seed(std::uint64_t seed);

}  // namespace cgc::obs
