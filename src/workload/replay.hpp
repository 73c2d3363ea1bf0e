// Replays system-neutral mutator traces onto our Scenario (ids align
// because both number objects sequentially in operation order).
#pragma once

#include "workload/ops.hpp"
#include "workload/scenario.hpp"

namespace cgc {

/// Replays a trace directly onto a bare engine (one site per process, no
/// ground-truth oracle). Unlike `replay_on_scenario` this performs no
/// holds() validation, so it can run without quiescing between operations
/// — the configuration that leaves same-tick message bursts for the wire
/// layer's batching to coalesce.
inline void replay_on_engine(GgdEngine& e, const std::vector<MutatorOp>& ops,
                             bool quiesce_between = false) {
  Simulator& sim = e.network().simulator();
  for (const MutatorOp& op : ops) {
    switch (op.kind) {
      case MutatorOp::Kind::kAddRoot:
        e.add_process(op.a, SiteId{op.a.value()}, /*is_root=*/true);
        break;
      case MutatorOp::Kind::kCreate:
        e.create_object(op.b, op.a, SiteId{op.a.value()});
        break;
      case MutatorOp::Kind::kLinkOwn:
        e.send_own_ref(op.a, op.b);
        break;
      case MutatorOp::Kind::kLinkThird:
        e.send_third_party_ref(op.a, op.c, op.b);
        break;
      case MutatorOp::Kind::kDrop:
        e.drop_ref(op.a, op.b);
        break;
      case MutatorOp::Kind::kMigrate:
        e.migrate(op.a, op.site);
        break;
    }
    if (quiesce_between) {
      sim.run();
    }
  }
  sim.run();
}

/// Replays a trace onto a baseline collector (any engine with
/// `apply(const MutatorOp&)`), quiescing delivery after every op.
template <typename Engine>
void replay_on_baseline(Engine& e, Simulator& sim,
                        const std::vector<MutatorOp>& ops) {
  for (const MutatorOp& op : ops) {
    e.apply(op);
    sim.run();
  }
}

/// Strict scenario replay for known-good traces: every op must execute
/// (the trace is mutator-legal and delivery is quiesced between ops).
/// `Scenario::apply` is the lenient sibling that skips instead.
inline void replay_on_scenario(Scenario& s, const std::vector<MutatorOp>& ops,
                               bool quiesce_between = true) {
  for (const MutatorOp& op : ops) {
    CGC_CHECK_MSG(s.apply(op), "trace replay: op preconditions unmet");
    if (quiesce_between) {
      s.run();
    }
  }
  s.run();
}

}  // namespace cgc
