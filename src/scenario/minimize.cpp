#include "scenario/minimize.hpp"

#include <algorithm>
#include <sstream>

#include "oracle/reachability_oracle.hpp"

namespace cgc {

std::vector<MutatorOp> minimize_trace(const std::vector<MutatorOp>& ops,
                                      const FailurePredicate& fails,
                                      MinimizeOptions options) {
  std::vector<MutatorOp> cur = ReachabilityOracle::normalize(ops);
  std::size_t evaluations = 0;
  auto still_fails = [&](const std::vector<MutatorOp>& candidate) {
    ++evaluations;
    return fails(candidate);
  };
  if (!still_fails(cur)) {
    // The failure does not survive normalisation (it depended on illegal
    // ops): nothing to shrink against, return the normal form.
    return cur;
  }
  // Greedy ddmin: cut chunks of halving size; after a successful cut the
  // scan restarts at the same granularity, so the result is 1-minimal
  // once chunk size 1 passes without progress.
  for (std::size_t chunk = std::max<std::size_t>(cur.size() / 2, 1);
       chunk >= 1; chunk /= 2) {
    bool progress = true;
    while (progress && evaluations < options.max_evaluations) {
      progress = false;
      for (std::size_t start = 0;
           start < cur.size() && evaluations < options.max_evaluations;
           start += chunk) {
        std::vector<MutatorOp> candidate;
        candidate.reserve(cur.size());
        for (std::size_t i = 0; i < cur.size(); ++i) {
          if (i < start || i >= start + chunk) {
            candidate.push_back(cur[i]);
          }
        }
        candidate = ReachabilityOracle::normalize(candidate);
        if (candidate.size() < cur.size() && still_fails(candidate)) {
          cur = std::move(candidate);
          progress = true;
          // Re-scan from the front: earlier cuts may have become viable.
          break;
        }
      }
    }
    if (chunk == 1) {
      break;
    }
  }
  return cur;
}

FailurePredicate same_failure(const ScenarioSpec& spec,
                              FailureClass target) {
  return [spec, target = std::move(target)](
             const std::vector<MutatorOp>& candidate) {
    return run_conformance(spec, candidate).has_failure(target);
  };
}

namespace {

/// One op as an initializer (`code`) and what it does in words
/// (`comment`, empty when the code says it all).
struct OpText {
  std::string code;
  std::string comment;
};

OpText op_text(const MutatorOp& op) {
  switch (op.kind) {
    case MutatorOp::Kind::kAddRoot:
      return {"{MutatorOp::Kind::kAddRoot, P(" + op.a.str() + "), {}, {}}",
              ""};
    case MutatorOp::Kind::kCreate:
      return {"{MutatorOp::Kind::kCreate, P(" + op.a.str() + "), P(" +
                  op.b.str() + "), {}}",
              op.b.str() + " creates " + op.a.str()};
    case MutatorOp::Kind::kLinkOwn:
      return {"{MutatorOp::Kind::kLinkOwn, P(" + op.a.str() + "), P(" +
                  op.b.str() + "), {}}",
              "edge " + op.b.str() + " -> " + op.a.str()};
    case MutatorOp::Kind::kLinkThird:
      return {"{MutatorOp::Kind::kLinkThird, P(" + op.forwarder().str() +
                  "), P(" + op.recipient().str() + "), P(" +
                  op.subject().str() + ")}",
              op.forwarder().str() + " forwards " + op.subject().str() +
                  " to " + op.recipient().str()};
    case MutatorOp::Kind::kDrop:
      return {"{MutatorOp::Kind::kDrop, P(" + op.a.str() + "), P(" +
                  op.b.str() + "), {}}",
              op.a.str() + " drops " + op.b.str()};
    case MutatorOp::Kind::kMigrate:
      return {"{MutatorOp::Kind::kMigrate, P(" + op.a.str() +
                  "), {}, {}, SiteId{" + op.site.str() + "}}",
              op.a.str() + " hands off to site " + op.site.str()};
  }
  return {"{}", ""};
}

}  // namespace

std::string format_trace(const std::vector<MutatorOp>& ops) {
  std::ostringstream os;
  for (const MutatorOp& op : ops) {
    // The separating comma goes before the line comment, or the comment
    // would swallow it.
    const OpText text = op_text(op);
    os << "      " << text.code << ',';
    if (!text.comment.empty()) {
      os << "  // " << text.comment;
    }
    os << '\n';
  }
  return os.str();
}

std::string format_regression_test(const ScenarioSpec& spec,
                                   const std::vector<MutatorOp>& ops) {
  std::ostringstream os;
  os << "// Minimized from fuzz scenario: " << spec.describe() << "\n"
     << "TEST(ScenarioRegression, Seed" << spec.seed << ") {\n"
     << "  const auto P = [](std::uint64_t v) { return ProcessId{v}; };\n"
     << "  ScenarioSpec spec = spec_from_seed(" << spec.seed << "ULL);\n"
     << "  const std::vector<MutatorOp> ops = {\n"
     << format_trace(ops) << "  };\n"
     << "  const ConformanceReport report = run_conformance(spec, ops);\n"
     << "  EXPECT_TRUE(report.ok()) << report.summary();\n"
     << "}\n";
  return os.str();
}

}  // namespace cgc
