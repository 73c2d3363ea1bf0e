#include "runtime_mt/harness.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "oracle/reachability_oracle.hpp"
#include "runtime_mt/placement.hpp"
#include "runtime_mt/site_node.hpp"
#include "runtime_mt/transport.hpp"
#include "sim/simulator.hpp"

namespace cgc::runtime_mt {

namespace {

std::uint64_t total_removed(
    const std::vector<std::unique_ptr<SiteWorker>>& workers) {
  std::uint64_t n = 0;
  for (const auto& w : workers) {
    n += w->node().removed().size();
  }
  return n;
}

bool any_pending_destructions(
    const std::vector<std::unique_ptr<SiteWorker>>& workers) {
  for (const auto& w : workers) {
    if (w->node().pending_destruction_count() > 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

ThreadedRun run_threaded(const ScenarioSpec& spec,
                         const std::vector<MutatorOp>& ops,
                         const ThreadedConfig& cfg) {
  ThreadedRun run;
  run.num_sites = cfg.num_threads;
  run.sweep_budget = cfg.sweep_budget;
  Placement placement(cfg.num_threads, ops);
  ThreadedTransport transport(cfg.num_threads);
  transport.set_fault_rates(spec.drop_rate, spec.duplicate_rate,
                            cfg.reorder_rate);
  wire::ConcurrentTraceRecorder recorder;

  Rng seeder(spec.seed ^ 0x7ead11e5ULL);
  std::vector<std::unique_ptr<SiteWorker>> workers;
  workers.reserve(cfg.num_threads);
  for (std::uint64_t s = 0; s < cfg.num_threads; ++s) {
    workers.push_back(std::make_unique<SiteWorker>(
        SiteId{s}, placement, LogKeepingMode::kRobust, transport, recorder,
        ops, seeder.next(), cfg.coalesce_max_bytes, cfg.coalesce_max_ops,
        cfg.sweep_budget));
  }
  std::vector<std::thread> threads;
  threads.reserve(cfg.num_threads);
  for (auto& w : workers) {
    threads.emplace_back([worker = w.get()] { worker->run(); });
  }

  // The driver only ever observes worker state while the transport is
  // quiescent: the release on the final sub_inflight / the acquire on the
  // zero read, and the queue push that starts the next phase, order every
  // read here against the workers' writes.
  const auto wait_quiescent = [&]() -> bool {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(cfg.watchdog_ms);
    while (!transport.quiescent()) {
      if (!transport.aborted() && transport.stamped() > cfg.max_envelopes) {
        run.failures.push_back("envelope cap exceeded (" +
                               std::to_string(cfg.max_envelopes) +
                               "): runaway cascade");
        transport.abort();
      }
      if (!transport.aborted() &&
          std::chrono::steady_clock::now() > deadline) {
        run.failures.push_back("watchdog: no quiescence within " +
                               std::to_string(cfg.watchdog_ms) + "ms");
        transport.abort();
      }
      std::this_thread::yield();
    }
    return !transport.aborted();
  };

  // Phase 1: inject every op, unpaced, faults live — the stress.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Envelope env;
    env.kind = Envelope::Kind::kOp;
    env.op_index = static_cast<std::uint32_t>(i);
    transport.push_counted(placement.site_for(ops[i].a), std::move(env));
  }
  // Phase 2: quiesce, then heal — verdicts assume fair delivery (§1).
  if (wait_quiescent()) {
    transport.set_fault_rates(0.0, 0.0, 0.0);
    // Phase 3: healed sweep rounds to a removal fixpoint. Progress mirrors
    // Scenario::run_with_sweeps: something got removed, or owed
    // destructions were re-emitted.
    std::size_t idle = 0;
    std::uint64_t removed_before = total_removed(workers);
    const std::size_t idle_limit = sweep::idle_round_limit(cfg.sweep_budget);
    for (std::size_t r = 0; r < cfg.sweep_rounds && idle < idle_limit; ++r) {
      const bool had_pending = any_pending_destructions(workers);
      for (std::uint64_t s = 0; s < cfg.num_threads; ++s) {
        Envelope env;
        env.kind = Envelope::Kind::kSweep;
        transport.push_counted(SiteId{s}, std::move(env));
      }
      if (!wait_quiescent()) {
        break;
      }
      const std::uint64_t now_removed = total_removed(workers);
      idle = (now_removed != removed_before || had_pending) ? 0 : idle + 1;
      removed_before = now_removed;
    }
  }
  // Phase 4: stop sentinels (uncounted — nothing waits on them) and join.
  for (std::uint64_t s = 0; s < cfg.num_threads; ++s) {
    transport.push(SiteId{s}, Envelope{});
  }
  for (auto& t : threads) {
    t.join();
  }

  for (const auto& w : workers) {
    run.schedule.insert(run.schedule.end(), w->log().begin(), w->log().end());
    run.stats.merge(w->stats());
    run.removed_by_site.push_back(w->node().removed());
    for (ProcessId p : w->node().removed()) {
      run.removed.insert(p);
    }
    for (const InputRecord& rec : w->log()) {
      if (rec.kind == Envelope::Kind::kOp && !rec.applied) {
        ++run.skipped_ops;
      }
    }
    run.envelopes += w->envelopes_processed();
  }
  std::sort(run.schedule.begin(), run.schedule.end(),
            [](const InputRecord& a, const InputRecord& b) {
              return a.seq < b.seq;
            });
  for (std::size_t i = 1; i < run.schedule.size(); ++i) {
    CGC_CHECK_MSG(run.schedule[i - 1].seq != run.schedule[i].seq,
                  "global dequeue sequence not unique");
  }
  run.packets = recorder.sent();
  run.trace = recorder.finalize();
  return run;
}

namespace {

/// Everything one replayed input needs to reach — captured as a single
/// pointer so the scheduled closure stays within InlineFunction's budget.
struct ReplayCtx {
  const std::vector<MutatorOp>* ops = nullptr;
  const ThreadedRun* run = nullptr;
  ReplayVerdict* verdict = nullptr;
  Placement* placement = nullptr;
  Simulator* sim = nullptr;
  ReachabilityOracle oracle;
  std::vector<std::unique_ptr<SiteNode>> nodes;
  std::vector<std::unique_ptr<PacketAssembler>> assemblers;
  /// Per-site recorded send queues (indices into run->packets) and the
  /// per-site replay cursor.
  std::vector<std::vector<std::uint64_t>> expected;
  std::vector<std::size_t> next_expected;
  std::vector<std::vector<ProcessId>> removed_by_site;

  void fail(std::string msg) { verdict->failures.push_back(std::move(msg)); }

  void execute(std::size_t index) {
    const InputRecord& rec = run->schedule[index];
    const std::uint64_t s = rec.site.value();
    SiteNode& node = *nodes[s];
    switch (rec.kind) {
      case Envelope::Kind::kOp: {
        const MutatorOp& op = (*ops)[rec.op_index];
        const bool applied = node.apply(op);
        if (applied != rec.applied) {
          fail("seq " + std::to_string(rec.seq) + ": op " +
               std::to_string(rec.op_index) + " verdict diverged (live " +
               (rec.applied ? "applied" : "skipped") + ", replay " +
               (applied ? "applied" : "skipped") + ")");
          break;
        }
        if (applied) {
          feed_oracle(op);
        }
        break;
      }
      case Envelope::Kind::kPacket: {
        const auto& pkt = run->packets[rec.packet_id];
        if (pkt.to != rec.site) {
          fail("seq " + std::to_string(rec.seq) +
               ": packet delivered to a site it was not addressed to");
          break;
        }
        node.deliver_packet(*pkt.bytes);
        break;
      }
      case Envelope::Kind::kSweep:
        // One slice per recorded envelope: the live worker's continuation
        // envelopes appear as further kSweep records in the schedule, so
        // replaying a slice per record reproduces the identical slicing.
        (void)node.sweep_slice(run->sweep_budget);
        break;
      case Envelope::Kind::kStop:
        break;
    }
    // The live worker coalesced: its assembler was only taken at the
    // recorded flush points, so the replay's per-site assembler must be
    // taken at exactly those records to regenerate identical packets.
    if (rec.flushed) {
      check_outbound(s, rec.seq);
    }
  }

  void feed_oracle(const MutatorOp& op) {
    const SimTime now = sim->now();
    switch (op.kind) {
      case MutatorOp::Kind::kAddRoot:
        oracle.add_root(op.a, now);
        oracle.record_site(op.a, placement->site_for(op.a), now);
        break;
      case MutatorOp::Kind::kCreate:
        oracle.add_node(op.a, now);
        oracle.record_site(op.a, placement->site_for(op.a), now);
        break;
      case MutatorOp::Kind::kDrop:
        oracle.remove_edge(op.a, op.b, now);
        break;
      case MutatorOp::Kind::kLinkOwn:
      case MutatorOp::Kind::kLinkThird:
        // Edges materialize at reference delivery (the hook), not here.
        break;
      case MutatorOp::Kind::kMigrate:
        break;  // unreachable: Placement rejects migration traces
    }
  }

  void check_outbound(std::uint64_t site, std::uint64_t seq) {
    for (PacketAssembler::Packet& pkt : assemblers[site]->take()) {
      auto& exp = expected[site];
      std::size_t& cursor = next_expected[site];
      if (cursor >= exp.size()) {
        fail("seq " + std::to_string(seq) + ": site " + std::to_string(site) +
             " regenerated a packet the live run never sent");
        ++verdict->packets_checked;
        continue;
      }
      const auto& sp = run->packets[exp[cursor++]];
      if (sp.to != pkt.to || *sp.bytes != pkt.bytes) {
        fail("seq " + std::to_string(seq) + ": site " + std::to_string(site) +
             " packet #" + std::to_string(cursor - 1) +
             " diverged from the recording (" +
             std::to_string(pkt.bytes.size()) + " vs " +
             std::to_string(sp.bytes->size()) + " bytes)");
      }
      ++verdict->packets_checked;
    }
  }
};

}  // namespace

ReplayVerdict replay_threaded(const std::vector<MutatorOp>& ops,
                              const ThreadedRun& run) {
  ReplayVerdict verdict;
  Placement placement(run.num_sites, ops);
  Simulator sim;
  ReplayCtx ctx;
  ctx.ops = &ops;
  ctx.run = &run;
  ctx.verdict = &verdict;
  ctx.placement = &placement;
  ctx.sim = &sim;
  ctx.expected.resize(run.num_sites);
  ctx.next_expected.assign(run.num_sites, 0);
  ctx.removed_by_site.resize(run.num_sites);
  for (std::size_t i = 0; i < run.packets.size(); ++i) {
    ctx.expected[run.packets[i].from.value()].push_back(i);
  }
  for (std::uint64_t s = 0; s < run.num_sites; ++s) {
    ctx.nodes.push_back(std::make_unique<SiteNode>(
        SiteId{s}, placement, LogKeepingMode::kRobust, nullptr));
    ctx.assemblers.push_back(std::make_unique<PacketAssembler>(SiteId{s}));
    SiteNode& node = *ctx.nodes[s];
    PacketAssembler& assembler = *ctx.assemblers[s];
    node.set_sender([&assembler](SiteId to, const wire::WireMessage& msg) {
      (void)assembler.add(to, msg);
    });
    node.set_on_ref_delivered(
        [&ctx, &sim](ProcessId recipient, ProcessId subject) {
          ctx.oracle.add_edge(recipient, subject, sim.now());
        });
    node.set_on_removed([&ctx, &sim, s](ProcessId p) {
      ctx.removed_by_site[s].push_back(p);
      ctx.verdict->removed.insert(p);
      // Tripwire at the instant of the decision: garbage is stable, so a
      // removal of a currently reachable process is wrong no matter what
      // happens later.
      if (ctx.oracle.live(p)) {
        ctx.fail("seq " + std::to_string(sim.now()) + ": proc " + p.str() +
                 " removed while reachable");
      }
    });
  }

  for (std::size_t i = 0; i < run.schedule.size(); ++i) {
    sim.schedule_at(run.schedule[i].seq, [c = &ctx, i] { c->execute(i); });
  }
  sim.run();

  for (std::uint64_t s = 0; s < run.num_sites; ++s) {
    if (ctx.next_expected[s] != ctx.expected[s].size()) {
      verdict.failures.push_back(
          "site " + std::to_string(s) + ": replay regenerated " +
          std::to_string(ctx.next_expected[s]) + " of " +
          std::to_string(ctx.expected[s].size()) + " recorded packets");
    }
    if (ctx.removed_by_site[s] != run.removed_by_site[s]) {
      verdict.failures.push_back(
          "site " + std::to_string(s) + ": removal sequence diverged (live " +
          std::to_string(run.removed_by_site[s].size()) + ", replay " +
          std::to_string(ctx.removed_by_site[s].size()) + ")");
    }
  }
  for (std::string& v : ctx.oracle.safety_violations(verdict.removed)) {
    verdict.failures.push_back("final-state " + v);
  }
  const std::set<ProcessId> residual =
      ctx.oracle.residual_garbage(verdict.removed);
  if (!residual.empty()) {
    std::string msg = "residual garbage after healed sweeps:";
    for (ProcessId p : residual) {
      msg += " " + p.str();
    }
    verdict.failures.push_back(std::move(msg));
  }
  verdict.true_garbage = ctx.oracle.true_garbage().size();
  return verdict;
}

}  // namespace cgc::runtime_mt
