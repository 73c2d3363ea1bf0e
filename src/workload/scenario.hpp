// Scenario: a GGD engine plus an omniscient ground truth.
//
// The ground truth is a `ReachabilityOracle` fed at message *delivery*
// (edges materialise when the reference-passing packet arrives, so a
// dropped packet never counts), giving tests and benches an oracle for
// true reachability that the distributed algorithm under test cannot see.
//
// The mutator API enforces what a real mutator could do: a process can
// only forward or drop references it actually holds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ggd/engine.hpp"
#include "net/network.hpp"
#include "oracle/reachability_oracle.hpp"
#include "sim/simulator.hpp"
#include "workload/ops.hpp"

namespace cgc {

class Scenario {
 public:
  struct Config {
    NetworkConfig net;
    LogKeepingMode mode = LogKeepingMode::kRobust;
    /// One site per process (paper's worked-example granularity) when
    /// true; otherwise processes are spread round-robin over `num_sites`.
    std::uint64_t num_sites = 0;  // 0 = one site per process
  };

  explicit Scenario(Config config)
      : config_(config), net_(sim_, config.net), engine_(net_, config.mode) {
    engine_.set_on_ref_delivered([this](ProcessId holder, ProcessId target) {
      oracle_.add_edge(holder, target, sim_.now());
    });
    engine_.set_on_migrated([this](ProcessId p, SiteId src, SiteId dst) {
      (void)src;
      // The site-of-record flips at snapshot delivery — the instant the
      // oracle's time-indexed site tracking must record.
      oracle_.record_site(p, dst, sim_.now());
    });
    engine_.set_on_removed([this](ProcessId p) {
      removed_.insert(p);
      removed_at_.emplace(p, sim_.now());
      // Tripwire: garbage is stable, so a removal of a currently reachable
      // process is a safety violation no matter what happens later. Record
      // the offender's state at the instant of the decision.
      if (oracle_.live(p)) {
        const GgdProcess& gp = engine_.process(p);
        std::string holders;
        for (ProcessId h : oracle_.reachable()) {
          if (oracle_.holds(h, p)) {
            holders += " " + h.str();
          }
        }
        violations_.push_back("proc " + p.str() + " removed while reachable" +
                              " self=" + gp.self_row().str() +
                              " V=" + gp.compute_v().str() + " holders:" +
                              holders);
      }
    });
  }

  /// Registers a new actual root (mutator entry point).
  ProcessId add_root() {
    const ProcessId id = next_id();
    engine_.add_process(id, site_for(id), /*is_root=*/true);
    oracle_.add_root(id, sim_.now());
    oracle_.record_site(id, site_for(id), sim_.now());
    return id;
  }

  /// `creator` allocates a new object on another site; the creator holds
  /// the only reference once the creation message is delivered.
  ProcessId create(ProcessId creator, bool is_root = false) {
    const ProcessId id = next_id();
    engine_.create_object(creator, id, site_for(id), is_root);
    oracle_.add_node(id, sim_.now());
    oracle_.record_site(id, site_for(id), sim_.now());
    return id;
  }

  /// Hands `p` off to site `dst` (no-op when already there or in transit).
  bool migrate(ProcessId p, SiteId dst) { return engine_.migrate(p, dst); }

  /// `i` hands its own reference to `j` (edge j -> i). Requires j to be
  /// known to i — in a real mutator i can only message objects it holds
  /// references to, but self-introduction to one's own referrers is also
  /// legal; the generators only use held references.
  void send_own_ref(ProcessId i, ProcessId j) { engine_.send_own_ref(i, j); }

  /// `i` forwards its held reference of `k` to `j` (edge j -> k).
  void send_third_party_ref(ProcessId i, ProcessId k, ProcessId j) {
    CGC_CHECK_MSG(holds(i, k), "mutator cannot forward a reference it lacks");
    engine_.send_third_party_ref(i, k, j);
  }

  /// `j` drops its held reference of `k`.
  void drop_ref(ProcessId j, ProcessId k) {
    CGC_CHECK_MSG(holds(j, k), "mutator cannot drop a reference it lacks");
    oracle_.remove_edge(j, k, sim_.now());
    engine_.drop_ref(j, k);
  }

  /// Replays one system-neutral trace op, honouring the op's explicit ids
  /// (so gappy minimized traces replay unchanged). Ops whose preconditions
  /// do not hold in the *delivered* state — an actor that never became
  /// reachable here, a reference whose carrying packet was lost or is
  /// still in flight — are skipped deterministically and return false.
  bool apply(const MutatorOp& op) {
    switch (op.kind) {
      case MutatorOp::Kind::kAddRoot:
        if (oracle_.knows(op.a)) {
          return false;
        }
        bump_counter(op.a);
        engine_.add_process(op.a, site_for(op.a), /*is_root=*/true);
        oracle_.add_root(op.a, sim_.now());
        oracle_.record_site(op.a, site_for(op.a), sim_.now());
        return true;
      case MutatorOp::Kind::kCreate:
        if (oracle_.knows(op.a) || !delivered_live(op.b)) {
          return false;
        }
        bump_counter(op.a);
        engine_.create_object(op.b, op.a, site_for(op.a), /*is_root=*/false);
        oracle_.add_node(op.a, sim_.now());
        oracle_.record_site(op.a, site_for(op.a), sim_.now());
        return true;
      case MutatorOp::Kind::kLinkOwn:
        if (op.a == op.b || !delivered_live(op.a) ||
            engine_.migrating(op.a) || !oracle_.knows(op.b) ||
            engine_.process(op.b).removed()) {
          return false;
        }
        send_own_ref(op.a, op.b);
        return true;
      case MutatorOp::Kind::kLinkThird:
        if (op.recipient() == op.subject() ||
            !delivered_live(op.forwarder()) ||
            engine_.migrating(op.forwarder()) ||
            !holds(op.forwarder(), op.subject()) ||
            !oracle_.knows(op.recipient()) ||
            engine_.process(op.recipient()).removed()) {
          return false;
        }
        send_third_party_ref(op.forwarder(), op.subject(), op.recipient());
        return true;
      case MutatorOp::Kind::kDrop:
        if (!delivered_live(op.a) || engine_.migrating(op.a) ||
            !holds(op.a, op.b)) {
          return false;
        }
        drop_ref(op.a, op.b);
        return true;
      case MutatorOp::Kind::kMigrate:
        // System-initiated (load balancing), so no liveness precondition:
        // a garbage-but-uncollected process can migrate, which is exactly
        // the death-certificate-chasing-a-mover race. Skipped when the
        // mover never materialised, was already collected, is mid-hand-off
        // (burst pacing), or the destination is its current site.
        if (!oracle_.knows(op.a) || !op.site.valid() ||
            engine_.process(op.a).removed() || engine_.migrating(op.a)) {
          return false;
        }
        return engine_.migrate(op.a, op.site);
    }
    return false;
  }

  /// Runs the simulation to quiescence (or until `max_events`).
  bool run(std::uint64_t max_events = 10'000'000) {
    return sim_.run(max_events);
  }

  /// Runs to quiescence, then performs up to `rounds` periodic GGD sweeps
  /// (each followed by quiescence) — the steady-state behaviour of a
  /// deployed system, which bounds the paper's "unbounded detection
  /// latency" in practice. Each round is a chain of `sweep_slice(budget)`
  /// calls with the network drained between slices (one slice per round
  /// when unbounded). Stops early after `sweep::idle_round_limit(budget)`
  /// rounds that collected nothing new.
  bool run_with_sweeps(std::size_t rounds = 8,
                       std::uint64_t budget = sweep::kUnbounded,
                       std::uint64_t max_events = 10'000'000) {
    if (!sim_.run(max_events)) {
      return false;
    }
    const std::size_t idle_limit = sweep::idle_round_limit(budget);
    std::size_t idle_rounds = 0;
    for (std::size_t r = 0; r < rounds && idle_rounds < idle_limit; ++r) {
      const std::size_t before = removed_.size();
      const bool had_pending = engine_.pending_destruction_count() > 0 ||
                               engine_.pending_handoff_count() > 0;
      while (!engine_.sweep_slice(budget)) {
        if (!sim_.run(max_events)) {
          return false;
        }
      }
      if (!sim_.run(max_events)) {
        return false;
      }
      // A round is progress if it removed something or had lost
      // destructions to re-emit. Steady-state verification inquiries do
      // NOT count — a live structure re-verifies its evidence every
      // round, which would otherwise defeat the early stop.
      const bool progressed = removed_.size() != before || had_pending;
      idle_rounds = progressed ? 0 : idle_rounds + 1;
    }
    return true;
  }

  // -- Oracle -------------------------------------------------------------

  [[nodiscard]] bool holds(ProcessId holder, ProcessId target) const {
    return oracle_.holds(holder, target);
  }

  [[nodiscard]] const FlatSet<ProcessId>& refs_of(ProcessId holder) const {
    return oracle_.refs_of(holder);
  }

  /// True reachability over delivered edges, from the actual roots.
  [[nodiscard]] std::set<ProcessId> reachable() const {
    return oracle_.reachable();
  }

  /// Processes the oracle knows are garbage right now.
  [[nodiscard]] std::set<ProcessId> true_garbage() const {
    return oracle_.true_garbage();
  }

  /// SAFETY: no process removed by GGD was reachable from a root at the
  /// moment of its removal (checked by the tripwire above — garbage is
  /// stable, so a reachable removal is wrong no matter when it is caught),
  /// and none is reachable now.
  [[nodiscard]] bool safety_holds() const {
    return violations_.empty() &&
           oracle_.safety_violations(removed_).empty();
  }

  /// Details of any removals of reachable processes, captured at decision
  /// time.
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }

  /// COMPREHENSIVENESS: every true garbage process has been removed.
  /// Guaranteed only under fault-free fair delivery; with faults the
  /// difference is residual garbage (paper §1).
  [[nodiscard]] std::set<ProcessId> residual_garbage() const {
    return oracle_.residual_garbage(removed_);
  }

  [[nodiscard]] const std::set<ProcessId>& removed() const { return removed_; }

  /// Sim time at which each removal happened (keys ⊆ removed()).
  [[nodiscard]] const FlatMap<ProcessId, SimTime>& removed_at() const {
    return removed_at_;
  }

  /// Unreachable→reclaimed latency samples (in sim ticks): for every
  /// process the engine reclaimed, removal time minus the oracle's
  /// ground-truth unreachability onset. Processes re-linked after their
  /// removal decision (impossible — garbage is stable) or removed with no
  /// recorded onset (a newborn collected before any graph event at its
  /// timestamp group) contribute nothing rather than a bogus sample.
  [[nodiscard]] std::vector<SimTime> reclaim_latencies() const {
    const FlatMap<ProcessId, SimTime> since = oracle_.unreachable_since();
    std::vector<SimTime> out;
    out.reserve(removed_at_.size());
    for (const auto& [p, at] : removed_at_) {
      auto it = since.find(p);
      if (it != since.end() && at >= it->second) {
        out.push_back(at - it->second);
      }
    }
    return out;
  }
  [[nodiscard]] const FlatSet<ProcessId>& roots() const {
    return oracle_.roots();
  }
  [[nodiscard]] std::size_t process_count() const {
    return oracle_.node_count();
  }

  [[nodiscard]] LogKeepingMode mode() const { return config_.mode; }
  [[nodiscard]] const ReachabilityOracle& oracle() const { return oracle_; }
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] Network& net() { return net_; }
  [[nodiscard]] GgdEngine& engine() { return engine_; }

 private:
  ProcessId next_id() { return ProcessId{++id_counter_}; }
  void bump_counter(ProcessId id) {
    id_counter_ = std::max(id_counter_, id.value());
  }

  /// Delivered-truth liveness: the actor's code can run here only if the
  /// actor became reachable in THIS run (its reference actually arrived).
  /// An engine-removed actor is also excluded — if the removal was wrong
  /// the tripwire has already recorded it, and the run must survive to
  /// report rather than crash inside the removed process.
  [[nodiscard]] bool delivered_live(ProcessId p) const {
    return oracle_.knows(p) && !engine_.process(p).removed() &&
           oracle_.live(p);
  }

  SiteId site_for(ProcessId p) const {
    if (config_.num_sites == 0) {
      return SiteId{p.value()};
    }
    return SiteId{p.value() % config_.num_sites};
  }

  Config config_;
  Simulator sim_;
  Network net_;
  GgdEngine engine_;
  std::uint64_t id_counter_ = 0;
  ReachabilityOracle oracle_;
  std::set<ProcessId> removed_;
  FlatMap<ProcessId, SimTime> removed_at_;
  std::vector<std::string> violations_;
};

}  // namespace cgc
