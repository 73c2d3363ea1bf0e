// Differential conformance harness: one scenario, every engine.
//
// `run_conformance` executes a generated trace against our GGD (robust
// and paper-exact log-keeping) through the real wire layer, and against
// the three baselines, then adjudicates each run with the
// `ReachabilityOracle` and cross-checks the engines against each other.
//
// Each engine is checked exactly against its protocol contract — the
// properties the literature actually claims for it:
//
//   engine        safety holds under        comprehensive when
//   ------------  ------------------------  -------------------------------
//   ggd robust    loss, dup, reorder,       after the network heals and
//                 bursts, migration         periodic sweeps run (§1, §5)
//   ggd paper     fault-free delivery,      fault-free, paced, no migration
//                 no migration (redirect    (the extra forwarding hop is
//                 hops reorder causally)    reordering in disguise)
//   tracing       any faults (control       after a global iteration —
//                 traffic is accounting);   faults never hurt it
//                 migration is a no-op
//                 (site-agnostic in situ)
//   schelvis      no loss (eager updates    fault-free, paced (in-flight
//                 load-bearing), no dup     eager updates race, §2.3;
//                 (duplicates fork probes   duplicated probes fork the
//                 exponentially), no        DFS into probe storms)
//                 migration (declared
//                 unsupported: static
//                 id->site probe routing)
//   wrc           no duplication (weight    never for cyclic garbage —
//                 returns are not           checked against the oracle's
//                 idempotent), no           counting-collectable set
//                 migration (declared
//                 unsupported: weight
//                 returns to home site)
//
// On fault-free scenarios the reclaimed sets of all comprehensive engines
// must be identical to the oracle's true garbage, and WRC's must equal
// the oracle's counting-collectable set — the differential check.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "metrics/message_stats.hpp"
#include "obs/metrics.hpp"
#include "runtime_mt/harness.hpp"
#include "scenario/spec.hpp"
#include "workload/scenario.hpp"

namespace cgc {

struct EngineRun {
  std::string name;
  bool ran = false;
  std::set<ProcessId> removed;
  /// Trace ops skipped because their delivered-state preconditions never
  /// materialised (lost reference packets, bursts in flight). Always zero
  /// on paced fault-free runs.
  std::size_t skipped_ops = 0;
  // Wire accounting snapshot.
  std::uint64_t control_msgs = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t total_msgs = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t packets_sent = 0;
  /// Unreachable→reclaimed latency (sim ticks): engine removal time
  /// joined against the oracle's ground-truth unreachability onset, one
  /// sample per reclaimed process. The completeness *lag* — measurable
  /// before this only as a boolean verdict.
  obs::TickHistogram latency;
  /// Per-sweep wall-clock pause (µs). GGD engines only; baselines have no
  /// sweep and leave it empty.
  obs::TickHistogram sweep_pause;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// The Scenario a seeded GGD run of `spec` is built on.
[[nodiscard]] Scenario::Config ggd_config(const ScenarioSpec& spec,
                                          LogKeepingMode mode);

/// Burst pacing of an unpaced run: after each op the simulator runs a
/// number of events drawn from a stream seeded by the spec, so every run
/// of one seed interleaves mutation and delivery alike — same-tick sends
/// coalesce into shared packets and GGD cascades run concurrently with
/// the mutator, without ever quiescing.
class BurstPacer {
 public:
  explicit BurstPacer(const ScenarioSpec& spec)
      : rng_(spec.seed * 0x2545f4914f6cdd1dULL + 1) {}

  [[nodiscard]] std::uint64_t next() { return rng_.below(48); }

 private:
  Rng rng_;
};

/// The one driver of a seeded GGD run, on an already-built Scenario
/// (callers attach their instruments first): mutation under the spec's
/// pacing, drain, heal, then sweep rounds to a fixpoint under `budget`
/// (the paper's fairness assumption: faults are transient, delivery is
/// eventually fair, §1, §5). Returns the oracle's verdict — SAFETY and
/// COMPLETENESS failure lines — and stops at the first phase that does
/// not quiesce.
[[nodiscard]] EngineRun drive_ggd(Scenario& s, const ScenarioSpec& spec,
                                  const std::vector<MutatorOp>& ops,
                                  std::uint64_t budget = sweep::kUnbounded);

/// The conformance runner's GGD leg: builds the Scenario for `spec` and
/// drives it, recording its sweep pauses.
[[nodiscard]] EngineRun run_ggd(const ScenarioSpec& spec,
                                const std::vector<MutatorOp>& ops,
                                LogKeepingMode mode,
                                std::uint64_t budget = sweep::kUnbounded);

/// What kind of failure a run reported, and where: the engine (or
/// "differential") and the verdict kind, the text before a failure
/// line's first ':' ("SAFETY", "COMPLETENESS", ...).
struct FailureClass {
  std::string engine;
  std::string verdict;

  [[nodiscard]] bool operator==(const FailureClass&) const = default;
};

struct ConformanceReport {
  ScenarioSpec spec;
  std::size_t trace_ops = 0;
  std::size_t processes = 0;
  std::size_t true_garbage = 0;
  std::vector<EngineRun> engines;
  /// Cross-engine differential failures (per-engine ones live in the runs).
  std::vector<std::string> differential_failures;

  [[nodiscard]] bool ok() const;
  /// Every failure across all engines, one per line, prefixed with the
  /// engine name — the message a fuzz seed prints before minimizing.
  [[nodiscard]] std::string summary() const;
  /// The failure a minimizer must preserve: the first SAFETY failure if
  /// there is one, else the first failure. Empty when ok().
  [[nodiscard]] std::optional<FailureClass> primary_failure() const;
  /// True when some failure belongs to `c`.
  [[nodiscard]] bool has_failure(const FailureClass& c) const;
};

/// True when some op re-creates an edge (holder, target) that an earlier
/// op destroyed. Paper-exact log-keeping's conformance contract excludes
/// such traces (a re-creation index can collide with the old destruction
/// marker's — the documented weakness robust mode's counter bumps close).
[[nodiscard]] bool has_regrant_after_drop(const std::vector<MutatorOp>& ops);

/// True when some op hands a process off to another site. Engines whose
/// contract declares migration unsupported (schelvis, wrc, ggd paper-exact)
/// are excluded from such traces instead of silently diverging.
[[nodiscard]] bool has_migration(const std::vector<MutatorOp>& ops);

/// Runs `ops` under `spec` on every engine whose contract admits the
/// spec's fault profile and adjudicates the verdicts above.
[[nodiscard]] ConformanceReport run_conformance(
    const ScenarioSpec& spec, const std::vector<MutatorOp>& ops);

/// Threaded-mode conformance: one live run under real scheduler
/// nondeterminism, recorded, then re-executed deterministically and
/// adjudicated (byte conformance + oracle safety/completeness — see
/// runtime_mt/harness.hpp for the exact checks).
struct ThreadedConformanceReport {
  ScenarioSpec spec;
  runtime_mt::ThreadedConfig config;
  runtime_mt::ThreadedRun run;
  runtime_mt::ReplayVerdict replay;

  [[nodiscard]] bool ok() const { return run.ok() && replay.ok(); }
  /// Every failure, one per line, prefixed with the phase it came from —
  /// what a failing stress seed prints before dumping the trace.
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] ThreadedConformanceReport run_threaded_conformance(
    const ScenarioSpec& spec, const std::vector<MutatorOp>& ops,
    const runtime_mt::ThreadedConfig& cfg = {});

}  // namespace cgc
