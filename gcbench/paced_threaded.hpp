// Paced driver for the threaded runtime: mutator ops go in as waves with a
// quiescence wait between waves, then sweep rounds run to the removal
// fixpoint.
//
// `runtime_mt::run_threaded` injects a whole trace unpaced, so an op whose
// precondition is a reference still in flight (a forward or a drop of a
// reference the actor has not received) is skipped at its site. Skipped
// teardown drops leave nothing to collect. This driver closes a wave
// before any op that needs an edge created earlier in the same wave, and
// otherwise after kWaveOps ops, so on a fault-free transport every op
// applies and the delivered graph ends equal to the trace's graph.
//
// The driver reads worker state only while the transport is quiescent,
// the same happens-before argument `run_threaded` relies on. It records,
// per step (op wave or sweep round), the bench-clock interval, the global
// dequeue sequence reached at its quiescent end, and the removals first
// seen there; the bench turns those into reclaim latencies and per-step
// safety checks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "runtime_mt/harness.hpp"
#include "runtime_mt/placement.hpp"
#include "runtime_mt/transport.hpp"
#include "runtime_mt/worker.hpp"
#include "tracer.hpp"
#include "wire/concurrent_trace.hpp"
#include "workload/ops.hpp"

namespace gcb {

/// Most ops one wave carries.
inline constexpr std::size_t kWaveOps = 32;

/// One quiescence-delimited step: an op wave or a sweep round.
struct PacedStep {
  bool sweep = false;
  double start_ms = 0;
  double end_ms = 0;
  std::uint64_t horizon = 0;  // dequeue sequence reached at the quiescent end
  std::vector<cgc::ProcessId> removed;  // first seen removed at the end
};

struct PacedRun {
  std::vector<PacedStep> steps;
  /// Every consumed input of every site, in global dequeue order.
  std::vector<cgc::runtime_mt::InputRecord> schedule;
  std::vector<cgc::wire::ConcurrentTraceRecorder::SentPacket> packets;
  std::set<cgc::ProcessId> removed;
  cgc::MessageStats stats;
  std::uint64_t envelopes = 0;
  std::size_t skipped_ops = 0;
  double setup_ms = 0;  // transport, workers and thread start
  double run_ms = 0;    // first op pushed to removal fixpoint
  std::vector<std::string> failures;
};

/// Where each wave of `ops` ends (exclusive indices): after kWaveOps ops,
/// or before an op that needs an edge created earlier in its wave (a
/// forward or a drop of a reference that may still be in flight).
inline std::vector<std::size_t> wave_ends(
    const std::vector<cgc::MutatorOp>& ops) {
  using cgc::MutatorOp;
  using Edge = std::pair<cgc::ProcessId, cgc::ProcessId>;
  std::vector<std::size_t> ends;
  std::set<Edge> fresh;
  std::size_t in_wave = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const MutatorOp& op = ops[i];
    bool waits = in_wave == kWaveOps;
    if (op.kind == MutatorOp::Kind::kLinkThird) {
      waits = waits || fresh.contains(Edge{op.forwarder(), op.subject()});
    } else if (op.kind == MutatorOp::Kind::kDrop) {
      waits = waits || fresh.contains(Edge{op.a, op.b});
    }
    if (waits && in_wave > 0) {
      ends.push_back(i);
      fresh.clear();
      in_wave = 0;
    }
    if (op.kind == MutatorOp::Kind::kCreate ||
        op.kind == MutatorOp::Kind::kLinkOwn) {
      fresh.insert(Edge{op.b, op.a});
    } else if (op.kind == MutatorOp::Kind::kLinkThird) {
      fresh.insert(Edge{op.recipient(), op.subject()});
    }
    ++in_wave;
  }
  if (in_wave > 0) {
    ends.push_back(ops.size());
  }
  return ends;
}

/// Runs `ops` on `cfg.num_threads` SiteWorker threads, one site each, with
/// the coalescing, sweep and watchdog settings of `cfg` (its fault rates,
/// reordering and envelope cap are not used: the transport is fault-free
/// and every wave is bounded). A sweep round
/// runs after the first wave that reaches `sweep_every_ops` ops since the
/// previous round. `clock_ms` is the bench's clock (wall time minus
/// checker time); `tracer` may be null.
inline PacedRun run_paced(const std::vector<cgc::MutatorOp>& ops,
                          const cgc::runtime_mt::ThreadedConfig& cfg,
                          std::size_t sweep_every_ops, std::uint64_t seed,
                          Tracer* tracer,
                          const std::function<double()>& clock_ms) {
  using cgc::MutatorOp;
  using cgc::ProcessId;
  using cgc::SiteId;
  using cgc::runtime_mt::Envelope;
  using cgc::runtime_mt::SiteWorker;

  PacedRun run;
  const double setup_start = clock_ms();
  std::unique_ptr<cgc::runtime_mt::Placement> placement;
  std::unique_ptr<cgc::runtime_mt::ThreadedTransport> transport;
  cgc::wire::ConcurrentTraceRecorder recorder;
  std::vector<std::unique_ptr<SiteWorker>> workers;
  std::vector<std::thread> threads;
  // Stops and joins the workers on every path out of this function.
  struct Joiner {
    cgc::runtime_mt::ThreadedTransport* transport = nullptr;
    std::vector<std::thread>* threads = nullptr;
    void stop() {
      if (threads == nullptr) {
        return;
      }
      for (std::size_t s = 0; s < threads->size(); ++s) {
        transport->push(SiteId{s}, Envelope{});
      }
      for (std::thread& t : *threads) {
        t.join();
      }
      threads = nullptr;
    }
    ~Joiner() { stop(); }
  } joiner;
  {
    Scope span(tracer, Layer::kSetup);
    placement =
        std::make_unique<cgc::runtime_mt::Placement>(cfg.num_threads, ops);
    transport =
        std::make_unique<cgc::runtime_mt::ThreadedTransport>(cfg.num_threads);
    joiner.transport = transport.get();
    joiner.threads = &threads;
    cgc::Rng seeder(seed);
    for (std::uint64_t s = 0; s < cfg.num_threads; ++s) {
      workers.push_back(std::make_unique<SiteWorker>(
          SiteId{s}, *placement, cgc::LogKeepingMode::kRobust, *transport,
          recorder, ops, seeder.next(), cfg.coalesce_max_bytes,
          cfg.coalesce_max_ops, cfg.sweep_budget));
    }
    threads.reserve(cfg.num_threads);
    for (auto& w : workers) {
      threads.emplace_back([worker = w.get()] { worker->run(); });
    }
  }
  run.setup_ms = clock_ms() - setup_start;

  std::vector<std::size_t> seen_removed(cfg.num_threads, 0);
  const auto wait_quiescent = [&]() {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(cfg.watchdog_ms);
    while (!transport->quiescent()) {
      if (!transport->aborted() &&
          std::chrono::steady_clock::now() > deadline) {
        run.failures.push_back("watchdog: no quiescence within " +
                               std::to_string(cfg.watchdog_ms) + "ms");
        transport->abort();
      }
      std::this_thread::yield();
    }
    return !transport->aborted();
  };
  const auto close_step = [&](PacedStep step) {
    const bool ok = wait_quiescent();
    step.end_ms = clock_ms();
    step.horizon = transport->stamped();
    for (std::uint64_t s = 0; s < cfg.num_threads; ++s) {
      const std::vector<ProcessId>& r = workers[s]->node().removed();
      step.removed.insert(step.removed.end(), r.begin() + seen_removed[s],
                          r.end());
      seen_removed[s] = r.size();
    }
    run.steps.push_back(std::move(step));
    return ok;
  };
  const auto total_removed = [&]() {
    std::size_t n = 0;
    for (std::size_t c : seen_removed) {
      n += c;
    }
    return n;
  };

  const auto sweep_round = [&]() {
    Scope span(tracer, Layer::kSweepRound);
    PacedStep step;
    step.sweep = true;
    step.start_ms = clock_ms();
    for (std::uint64_t s = 0; s < cfg.num_threads; ++s) {
      Envelope env;
      env.kind = Envelope::Kind::kSweep;
      transport->push_counted(SiteId{s}, std::move(env));
    }
    return close_step(std::move(step));
  };

  const double run_start = clock_ms();
  bool ok = true;
  std::size_t begin = 0;
  std::size_t since_sweep = 0;
  for (std::size_t end : wave_ends(ops)) {
    {
      Scope span(tracer, Layer::kWave);
      PacedStep step;
      step.start_ms = clock_ms();
      for (std::size_t i = begin; i < end; ++i) {
        Envelope env;
        env.kind = Envelope::Kind::kOp;
        env.op_index = static_cast<std::uint32_t>(i);
        transport->push_counted(placement->site_for(ops[i].a), std::move(env));
      }
      ok = close_step(std::move(step));
    }
    since_sweep += end - begin;
    begin = end;
    if (ok && since_sweep >= sweep_every_ops) {
      ok = sweep_round();
      since_sweep = 0;
    }
    if (!ok) {
      break;
    }
  }
  // Sweep rounds to the removal fixpoint, two idle rounds ending it.
  // Progress is a removal only: a site keeps re-emitting a destruction owed
  // to a remote live target every round, so counting re-emissions would run
  // every trace to `cfg.sweep_rounds` on a transport that loses nothing.
  std::size_t idle = 0;
  for (std::size_t r = 0; ok && r < cfg.sweep_rounds && idle < 2; ++r) {
    const std::size_t before = total_removed();
    ok = sweep_round();
    idle = total_removed() != before ? 0 : idle + 1;
  }
  run.run_ms = clock_ms() - run_start;

  {
    Scope span(tracer, Layer::kJoin);
    joiner.stop();
  }
  for (const auto& w : workers) {
    run.schedule.insert(run.schedule.end(), w->log().begin(), w->log().end());
    run.stats.merge(w->stats());
    for (ProcessId p : w->node().removed()) {
      run.removed.insert(p);
    }
    for (const auto& rec : w->log()) {
      if (rec.kind == Envelope::Kind::kOp && !rec.applied) {
        ++run.skipped_ops;
      }
    }
    run.envelopes += w->envelopes_processed();
  }
  std::sort(run.schedule.begin(), run.schedule.end(),
            [](const auto& a, const auto& b) { return a.seq < b.seq; });
  run.packets = recorder.sent();
  return run;
}

}  // namespace gcb
