// Delta-debugging trace minimizer.
//
// Given a failing scenario (a spec plus a trace for which some predicate
// — usually "run_conformance reports a failure" — holds), shrinks the
// trace to a 1-minimal op sequence: removing any single remaining op
// makes the failure disappear. Candidate subsequences are first
// normalised through the `ReachabilityOracle` legality rules, so cutting
// a create never leaves dangling references behind — the candidate is
// always a legal trace and every engine can replay it.
//
// The minimized trace prints as a ready-to-paste GoogleTest regression
// test via `format_regression_test`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace cgc {

/// Returns true when the candidate trace still exhibits the failure.
using FailurePredicate =
    std::function<bool(const std::vector<MutatorOp>&)>;

struct MinimizeOptions {
  /// Upper bound on predicate evaluations (each evaluation re-runs the
  /// scenario, so this is the time budget knob).
  std::size_t max_evaluations = 400;
};

/// The predicate that keeps one failure: a candidate fails when its
/// conformance run under `spec` reports a failure of class `target`. A
/// predicate that accepted any failure would let a safety bug shrink into
/// an unrelated completeness gap of another engine.
[[nodiscard]] FailurePredicate same_failure(const ScenarioSpec& spec,
                                            FailureClass target);

/// Shrinks `ops` while `fails` keeps holding. The input is normalised
/// first; the result is 1-minimal within the evaluation budget.
[[nodiscard]] std::vector<MutatorOp> minimize_trace(
    const std::vector<MutatorOp>& ops, const FailurePredicate& fails,
    MinimizeOptions options = {});

/// One op per line in TraceBuilder-call style — the compact artifact form.
[[nodiscard]] std::string format_trace(const std::vector<MutatorOp>& ops);

/// A complete, compilable TEST() reproducing the failure: rebuilds the
/// spec field by field, lists the minimized ops, and asserts the
/// conformance report is clean.
[[nodiscard]] std::string format_regression_test(
    const ScenarioSpec& spec, const std::vector<MutatorOp>& ops);

}  // namespace cgc
