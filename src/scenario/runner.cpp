#include "scenario/runner.hpp"

#include <sstream>

#include "common/rng.hpp"

#include "baselines/schelvis/schelvis.hpp"
#include "baselines/tracing/tracing.hpp"
#include "baselines/wrc/wrc.hpp"
#include "oracle/reachability_oracle.hpp"
#include "workload/scenario.hpp"

namespace cgc {

namespace {

std::string ids(const std::set<ProcessId>& s) {
  std::string out = "{";
  for (ProcessId p : s) {
    out += " " + p.str();
  }
  return out + " }";
}

void snapshot_stats(EngineRun& run, const MessageStats& stats) {
  run.control_msgs = stats.control_sent();
  run.control_bytes = stats.control_bytes_sent();
  run.total_msgs = stats.total_sent();
  run.total_bytes = stats.total_bytes_sent();
  run.packets_sent = stats.packets().sent;
}

/// Every process the trace registers, in creation order (the candidates a
/// baseline can ever remove).
std::vector<ProcessId> procs_in(const std::vector<MutatorOp>& ops) {
  std::vector<ProcessId> out;
  for (const MutatorOp& op : ops) {
    if (op.kind == MutatorOp::Kind::kAddRoot ||
        op.kind == MutatorOp::Kind::kCreate) {
      out.push_back(op.a);
    }
  }
  return out;
}

/// Joins engine removal times against ground-truth unreachability onsets
/// into the run's latency histogram, and records the removal set itself
/// (baselines previously reported an always-empty set in the bench JSON).
void record_latencies(EngineRun& run, const ReachabilityOracle& oracle,
                      const FlatMap<ProcessId, SimTime>& removed_at) {
  const FlatMap<ProcessId, SimTime> since = oracle.unreachable_since();
  for (const auto& [p, at] : removed_at) {
    run.removed.insert(p);
    auto it = since.find(p);
    if (it != since.end() && at >= it->second) {
      run.latency.record(at - it->second);
    }
  }
}

/// Our GGD through the real Scenario stack: mutation under the spec's
/// fault profile, then heal + periodic sweeps (the paper's fairness
/// assumption: faults are transient, delivery is eventually fair).
EngineRun run_ggd(const ScenarioSpec& spec, const std::vector<MutatorOp>& ops,
                  LogKeepingMode mode) {
  EngineRun run;
  run.name = mode == LogKeepingMode::kRobust ? "ggd_robust" : "ggd_paper";
  run.ran = true;
  Scenario s(Scenario::Config{.net = spec.net_config(),
                              .mode = mode,
                              .num_sites = spec.num_sites});
  // Observability ride-along: passive by contract (the golden-trace test
  // pins that down), so attaching in the conformance path is free of
  // divergence risk and gives every report latency/pause percentiles.
  obs::Registry reg;
  s.engine().attach_obs(&reg, nullptr);
  Rng burst_rng(spec.seed * 0x2545f4914f6cdd1dULL + 1);
  for (const MutatorOp& op : ops) {
    if (!s.apply(op)) {
      ++run.skipped_ops;
    }
    if (spec.paced) {
      if (!s.run()) {
        run.failures.push_back("simulator did not quiesce during mutation");
        return run;
      }
    } else {
      // Burst pacing: interleave mutation with bounded partial delivery —
      // same-tick sends coalesce into shared packets and GGD cascades run
      // concurrently with the mutator, without ever quiescing.
      s.sim().run(burst_rng.below(48));
    }
  }
  if (!s.run()) {
    run.failures.push_back("simulator did not quiesce after mutation");
    return run;
  }
  // Heal, then sweep: completeness is only promised under eventually-fair
  // delivery, and the periodic sweep is what bounds detection latency.
  s.net().set_drop_rate(0.0);
  s.net().set_duplicate_rate(0.0);
  if (!s.run_with_sweeps(16)) {
    run.failures.push_back("simulator did not quiesce during sweeps");
    return run;
  }
  run.removed = s.removed();
  snapshot_stats(run, s.net().stats());
  for (SimTime l : s.reclaim_latencies()) {
    run.latency.record(l);
  }
  run.sweep_pause = reg.histogram("ggd.sweep_pause_us");
  if (!s.safety_holds()) {
    for (const std::string& v : s.violations()) {
      run.failures.push_back("SAFETY: " + v);
    }
    for (const std::string& v :
         s.oracle().safety_violations(s.removed())) {
      run.failures.push_back("SAFETY: " + v);
    }
  }
  const std::set<ProcessId> residual = s.residual_garbage();
  if (!residual.empty()) {
    run.failures.push_back("COMPLETENESS: residual garbage " + ids(residual));
  }
  return run;
}

/// Replays the trace on a baseline engine, paced (baselines model eager
/// state at the sender; quiescing between ops is their delivery-fairness
/// assumption), mirroring it into a trace-level oracle.
template <typename Engine, typename RemovedFn>
EngineRun run_baseline(std::string name, const std::vector<MutatorOp>& ops,
                       ReachabilityOracle& oracle, Engine& engine,
                       Simulator& sim, const RemovedFn& is_removed,
                       FlatMap<ProcessId, SimTime>& removed_at) {
  EngineRun run;
  run.name = std::move(name);
  run.ran = true;
  std::vector<ProcessId> known;
  for (const MutatorOp& op : ops) {
    // Ops are stamped with sim time so the oracle's unreachability onsets
    // line up with the engine's removal clock.
    CGC_CHECK_MSG(oracle.apply(op, sim.now()),
                  "conformance trace must be legal");
    if (op.kind == MutatorOp::Kind::kAddRoot ||
        op.kind == MutatorOp::Kind::kCreate) {
      known.push_back(op.a);
    }
    engine.apply(op);
    if (!sim.run()) {
      run.failures.push_back("simulator did not quiesce");
      return run;
    }
    for (ProcessId p : known) {
      if (!removed_at.contains(p) && is_removed(p)) {
        removed_at.emplace(p, sim.now());
      }
    }
  }
  return run;
}

}  // namespace

bool has_regrant_after_drop(const std::vector<MutatorOp>& ops) {
  std::set<std::pair<ProcessId, ProcessId>> dropped;
  for (const MutatorOp& op : ops) {
    switch (op.kind) {
      case MutatorOp::Kind::kAddRoot:
        break;
      case MutatorOp::Kind::kCreate:
      case MutatorOp::Kind::kLinkOwn:
        if (dropped.contains({op.b, op.a})) {
          return true;
        }
        break;
      case MutatorOp::Kind::kLinkThird:
        if (dropped.contains({op.recipient(), op.subject()})) {
          return true;
        }
        break;
      case MutatorOp::Kind::kDrop:
        dropped.insert({op.a, op.b});
        break;
      case MutatorOp::Kind::kMigrate:
        break;  // site hand-offs neither create nor destroy edges
    }
  }
  return false;
}

bool has_migration(const std::vector<MutatorOp>& ops) {
  for (const MutatorOp& op : ops) {
    if (op.kind == MutatorOp::Kind::kMigrate) {
      return true;
    }
  }
  return false;
}

bool ConformanceReport::ok() const {
  if (!differential_failures.empty()) {
    return false;
  }
  for (const EngineRun& run : engines) {
    if (!run.ok()) {
      return false;
    }
  }
  return true;
}

namespace {

/// Every failure of the report with its class, in summary() order.
template <typename Fn>
void for_each_failure(const ConformanceReport& r, Fn&& fn) {
  const auto classify = [](const std::string& engine, const std::string& f) {
    return FailureClass{engine, f.substr(0, f.find(':'))};
  };
  for (const EngineRun& run : r.engines) {
    for (const std::string& f : run.failures) {
      fn(classify(run.name, f));
    }
  }
  for (const std::string& f : r.differential_failures) {
    fn(classify("differential", f));
  }
}

}  // namespace

std::optional<FailureClass> ConformanceReport::primary_failure() const {
  std::optional<FailureClass> first;
  std::optional<FailureClass> safety;
  for_each_failure(*this, [&](const FailureClass& c) {
    if (!first) {
      first = c;
    }
    if (!safety && c.verdict == "SAFETY") {
      safety = c;
    }
  });
  return safety ? safety : first;
}

bool ConformanceReport::has_failure(const FailureClass& c) const {
  bool found = false;
  for_each_failure(*this,
                   [&](const FailureClass& f) { found = found || f == c; });
  return found;
}

std::string ConformanceReport::summary() const {
  std::ostringstream os;
  os << "scenario " << spec.describe() << " (" << trace_ops << " ops, "
     << true_garbage << " true garbage)";
  for (const EngineRun& run : engines) {
    for (const std::string& f : run.failures) {
      os << "\n  [" << run.name << "] " << f;
    }
  }
  for (const std::string& f : differential_failures) {
    os << "\n  [differential] " << f;
  }
  return os.str();
}

ConformanceReport run_conformance(const ScenarioSpec& spec,
                                  const std::vector<MutatorOp>& ops) {
  ConformanceReport report;
  report.spec = spec;
  report.trace_ops = ops.size();

  // Trace-level ground truth (fault-free, quiesced view of the trace).
  ReachabilityOracle truth;
  for (const MutatorOp& op : ops) {
    CGC_CHECK_MSG(truth.apply(op), "conformance trace must be legal");
  }
  const std::set<ProcessId> garbage = truth.true_garbage();
  const std::set<ProcessId> countable = truth.counting_collectable();
  report.processes = truth.node_count();
  report.true_garbage = garbage.size();

  const bool fault_free = spec.drop_rate == 0.0 && spec.duplicate_rate == 0.0;
  const bool migration = has_migration(ops);

  // -- Our GGD, robust log-keeping: runs under every profile, migration
  //    included. ---------------------------------------------------------
  report.engines.push_back(
      run_ggd(spec, ops, LogKeepingMode::kRobust));

  // -- Our GGD, paper-exact log-keeping: fault-free FIFO contract. The
  //    literal §3.4 rules do not bump the owner's counter on forwards, so
  //    a row can change without its version advancing — under reordered
  //    delivery a peer can then act on a stale-but-version-identical
  //    replica (this is precisely the weakness robust mode closes, and
  //    the fuzzer finds it). Paper-exact therefore runs with FIFO
  //    latency; robust mode above takes the full fault profile. Migration
  //    traces are excluded too: a stub redirect adds a forwarding hop,
  //    which is exactly the causal reordering the contract rules out. ----
  if (fault_free && !has_regrant_after_drop(ops) && !migration) {
    ScenarioSpec fifo = spec;
    fifo.max_latency = fifo.min_latency;
    report.engines.push_back(run_ggd(fifo, ops, LogKeepingMode::kPaperExact));
  }

  // -- Tracing baseline: immune to faults (graph is inspected in situ). --
  {
    Simulator sim;
    Network net(sim, spec.net_config());
    TracingCollector engine(net);
    ReachabilityOracle oracle;
    FlatMap<ProcessId, SimTime> removed_at;
    EngineRun run = run_baseline(
        "tracing", ops, oracle, engine, sim,
        [&engine](ProcessId p) { return engine.removed(p); }, removed_at);
    if (run.ok()) {
      engine.run_cycle();
      if (!sim.run()) {
        run.failures.push_back("simulator did not quiesce after cycle");
      }
      // Tracing reclaims only at cycle end: stamp everything swept now.
      for (ProcessId p : procs_in(ops)) {
        if (!removed_at.contains(p) && engine.removed(p)) {
          removed_at.emplace(p, sim.now());
        }
      }
      record_latencies(run, oracle, removed_at);
      for (ProcessId p : oracle.reachable()) {
        if (engine.removed(p) && !oracle.roots().contains(p)) {
          run.failures.push_back("SAFETY: live proc " + p.str() + " swept");
        }
      }
      std::set<ProcessId> residual;
      for (ProcessId p : oracle.true_garbage()) {
        if (!engine.removed(p)) {
          residual.insert(p);
        }
      }
      if (!residual.empty()) {
        run.failures.push_back("COMPLETENESS: residual " + ids(residual));
      }
    }
    snapshot_stats(run, net.stats());
    report.engines.push_back(std::move(run));
  }

  // -- Schelvis baseline: eager updates are load-bearing, so its contract
  //    needs lossless delivery; and although duplicated probes are
  //    guarded against double-removal, every duplicate FORKS a whole
  //    continuing depth-first search — expected probe traffic grows as
  //    (1+dup)^hops, so the contract also excludes duplication (the
  //    harness found seeds where a 0.5 dup rate made the baseline take
  //    minutes of simulated probe storms). Reordering is fine. Migration
  //    is declared unsupported (static id->site probe routing). ---------
  if (fault_free && !migration) {
    Simulator sim;
    Network net(sim, spec.net_config());
    SchelvisEngine engine(net);
    ReachabilityOracle oracle;
    FlatMap<ProcessId, SimTime> removed_at;
    EngineRun run = run_baseline(
        "schelvis", ops, oracle, engine, sim,
        [&engine](ProcessId p) {
          return engine.exists(p) && engine.removed(p);
        },
        removed_at);
    if (run.ok()) {
      record_latencies(run, oracle, removed_at);
      for (ProcessId p : oracle.reachable()) {
        if (engine.exists(p) && engine.removed(p)) {
          run.failures.push_back("SAFETY: live proc " + p.str() + " removed");
        }
      }
      std::set<ProcessId> residual;
      for (ProcessId p : oracle.true_garbage()) {
        if (!engine.exists(p) || !engine.removed(p)) {
          residual.insert(p);
        }
      }
      if (!residual.empty()) {
        run.failures.push_back("COMPLETENESS: residual " + ids(residual));
      }
    }
    snapshot_stats(run, net.stats());
    report.engines.push_back(std::move(run));
  }

  // -- WRC baseline: weight returns are not idempotent, so its contract
  //    excludes duplication; loss only costs completeness. Migration is
  //    declared unsupported (weight returns travel to the home site). ---
  if (spec.duplicate_rate == 0.0 && !migration) {
    Simulator sim;
    Network net(sim, spec.net_config());
    WrcEngine engine(net);
    ReachabilityOracle oracle;
    FlatMap<ProcessId, SimTime> removed_at;
    EngineRun run = run_baseline(
        "wrc", ops, oracle, engine, sim,
        [&engine](ProcessId p) { return engine.removed(p); }, removed_at);
    if (run.ok()) {
      record_latencies(run, oracle, removed_at);
      for (ProcessId p : oracle.reachable()) {
        if (engine.removed(p)) {
          run.failures.push_back("SAFETY: live proc " + p.str() + " removed");
        }
      }
      if (fault_free) {
        // WRC's exact reach: everything the cascade can drain, nothing a
        // garbage cycle pins (the §3 non-comprehensiveness boundary).
        for (ProcessId p : countable) {
          if (!engine.removed(p)) {
            run.failures.push_back("COMPLETENESS: countable garbage " +
                                   p.str() + " not reclaimed");
          }
        }
        for (ProcessId p : garbage) {
          if (!countable.contains(p) && engine.removed(p)) {
            run.failures.push_back(
                "MODEL: cycle-pinned garbage " + p.str() +
                " reclaimed — counting cannot prove that");
          }
        }
      }
    }
    snapshot_stats(run, net.stats());
    report.engines.push_back(std::move(run));
  }

  // -- Differential: on fault-free scenarios every comprehensive engine
  //    must reclaim exactly the oracle's true garbage. ------------------
  if (fault_free) {
    for (const EngineRun& run : report.engines) {
      if (!run.ok()) {
        continue;  // already reported above
      }
      if (run.name == "ggd_robust" || run.name == "ggd_paper") {
        if (run.skipped_ops == 0 && run.removed != garbage) {
          report.differential_failures.push_back(
              run.name + " reclaimed " + ids(run.removed) +
              " != oracle garbage " + ids(garbage));
        }
      }
    }
    // Robust and paper-exact log-keeping must agree op-for-op when both
    // executed the full trace.
    const EngineRun* robust = nullptr;
    const EngineRun* paper = nullptr;
    for (const EngineRun& run : report.engines) {
      if (run.name == "ggd_robust") {
        robust = &run;
      }
      if (run.name == "ggd_paper") {
        paper = &run;
      }
    }
    if (robust != nullptr && paper != nullptr && robust->ok() &&
        paper->ok() && robust->skipped_ops == 0 && paper->skipped_ops == 0 &&
        robust->removed != paper->removed) {
      report.differential_failures.push_back(
          "robust vs paper-exact log-keeping reclaimed different sets: " +
          ids(robust->removed) + " vs " + ids(paper->removed));
    }
  }
  return report;
}

std::string ThreadedConformanceReport::summary() const {
  std::string out;
  for (const std::string& f : run.failures) {
    out += "live: " + f + "\n";
  }
  for (const std::string& f : replay.failures) {
    out += "replay: " + f + "\n";
  }
  return out;
}

ThreadedConformanceReport run_threaded_conformance(
    const ScenarioSpec& spec, const std::vector<MutatorOp>& ops,
    const runtime_mt::ThreadedConfig& cfg) {
  ThreadedConformanceReport report;
  report.spec = spec;
  report.config = cfg;
  report.run = runtime_mt::run_threaded(spec, ops, cfg);
  report.replay = runtime_mt::replay_threaded(ops, report.run);
  return report;
}

}  // namespace cgc
