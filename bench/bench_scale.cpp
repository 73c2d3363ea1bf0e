// Scale tier: hundreds of sites, tens of thousands of processes,
// sustained mutator churn — the regime the ROADMAP's "millions of users"
// north star extrapolates from, and the workload the dense-core refactor
// (interned ids, flat dependency vectors, allocation-free event heap) is
// aimed at.
//
// Drives the GgdEngine directly (no omniscient oracle in the loop — its
// O(V) reachability recheck per removal would dominate the numbers) and
// reports, per configuration:
//   * events/sec        — simulator event throughput, wall-clock
//   * bytes/reclaimed   — wire bytes paid per collected object
//   * peak RSS          — VmHWM from /proc/self/status where available,
//                         getrusage(ru_maxrss) elsewhere; the JSON field
//                         is omitted entirely when neither source works
//                         (a misleading 0 would read as "no memory used")
//   * hand-off cost     — migration snapshots, redirects, bounces and
//                         exact migration wire bytes (migrate_pct > 0)
// into BENCH_scale.json next to the other machine-readable bench files.
//
// `bench_scale --quick` runs only the smallest configurations — the CI
// budget; the full ladder is the local/perf-lab run.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_json.hpp"
#include "common/dense_map.hpp"
#include "common/rng.hpp"
#include "ggd/engine.hpp"
#include "ggd/sweep.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "runtime_mt/harness.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"

namespace cgc {
namespace {

struct ScaleConfig {
  std::string name;
  std::uint64_t sites = 0;
  std::uint64_t roots = 0;
  std::uint64_t processes = 0;  // target population (roots included)
  std::uint64_t churn_ops = 0;  // sustained mutator ops after build-up
  /// Percentage of churn ops that are cross-site hand-offs (the
  /// migration-churn knob; 0 reproduces the pre-migration workload).
  std::uint64_t migrate_pct = 0;
};

struct ScaleResult {
  ScaleConfig cfg;
  std::uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t wire_bytes = 0;
  double bytes_per_reclaimed = 0;
  /// GGD control traffic only (vectors, destructions, inquiries) — the
  /// delta row-relay's target. `wire_bytes` also counts reference passes
  /// and migration snapshots, which the relay policy cannot touch.
  std::uint64_t control_bytes = 0;
  double control_bytes_per_reclaimed = 0;
  std::uint64_t packets = 0;
  std::uint64_t log_entries = 0;
  std::optional<std::uint64_t> peak_rss_kb;
  /// Resident set right after build-up (population at target, churn not
  /// yet started): the steady-state footprint of just *holding* the
  /// process tables, separated from the churn-driven peak above it.
  std::optional<std::uint64_t> rss_after_build_kb;
  /// Engine pool footprint at end of run: arena bytes held vs bytes in
  /// live allocations (the gap is free-list + bump slack). Diagnostic
  /// only — stdout, not JSON.
  std::uint64_t pool_reserved_kb = 0;
  std::uint64_t pool_live_kb = 0;
  GgdEngine::MigrationStats migration;
  std::uint64_t migration_bytes = 0;
  obs::TickHistogram latency;      // unreachable→reclaimed, sim ticks
  obs::TickHistogram sweep_pause;  // per-slice wall µs
  obs::TickHistogram sweep_slices;  // slices each sweep round took
  std::uint64_t sweep_budget = 0;  // work units per slice this config ran
};

/// Peak resident set in kB: VmHWM from /proc/self/status (Linux), falling
/// back to getrusage's ru_maxrss elsewhere; nullopt when unmeasurable.
std::optional<std::uint64_t> peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      std::uint64_t kb = 0;
      if (ss >> kb) {
        return kb;
      }
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes, not kilobytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
  }
#endif
  return std::nullopt;
}

/// Current resident set in kB (VmRSS — the live figure, not the VmHWM
/// high-water mark peak_rss_kb() reads); nullopt off-Linux.
std::optional<std::uint64_t> current_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      std::uint64_t kb = 0;
      if (ss >> kb) {
        return kb;
      }
    }
  }
  return std::nullopt;
}

/// The mutator model: processes cluster under the root of their cohort;
/// churn keeps creating short-lived structures (including cycles) and
/// severing them, so the engine collects continuously while the
/// population stays near the target.
ScaleResult run_scale(const ScaleConfig& cfg) {
  Pool sim_pool;  // backs the event heap; declared first to outlive it
  Simulator sim(&sim_pool);
  Network net(sim, NetworkConfig{.min_latency = 1,
                                 .max_latency = 3,
                                 .drop_rate = 0,
                                 .duplicate_rate = 0,
                                 .seed = 12345});
  obs::Registry reg;  // outlives the engine, which caches pointers
  GgdEngine eng(net);
  eng.attach_obs(&reg, nullptr);
  Rng rng(cfg.processes ^ (cfg.sites << 20));

  std::uint64_t id_counter = 0;
  const auto site_for = [&](std::uint64_t v) { return SiteId{v % cfg.sites}; };

  std::vector<ProcessId> population;
  population.reserve(cfg.processes);
  DenseSet<ProcessId> dead;

  // Unreachable-onset tracking for the latency histogram. A full oracle
  // per removal would dominate the numbers (see the header comment), so
  // onset is refreshed by a BFS over the delivered-edge mirror at every
  // 512-op batch boundary: onset times are quantized to the boundary —
  // a consistent lower bound on the true latency, comparable across PRs.
  // Refresh time is accumulated separately and excluded from the wall
  // clock, so events/sec keeps measuring the engine, not the bench.
  constexpr SimTime kNoOnset = Simulator::kNever;
  std::vector<SimTime> since;  // indexed by ProcessId value
  obs::TickHistogram latency;
  std::chrono::steady_clock::duration oracle_wall{};

  eng.set_on_removed([&](ProcessId p) {
    dead.insert(p);
    if (p.value() < since.size() && since[p.value()] != kNoOnset) {
      latency.record(sim.now() - since[p.value()]);
      since[p.value()] = kNoOnset;
    }
  });

  // Delivered-edge mirror so churn only drops edges that exist: the
  // network is fault-free and paced (run() between batches), so every
  // sent reference materialises.
  std::vector<std::pair<ProcessId, ProcessId>> edges;
  DenseSet<std::pair<ProcessId, ProcessId>> edge_set;
  const auto add_edge = [&](ProcessId holder, ProcessId target) {
    if (edge_set.insert({holder, target})) {
      edges.push_back({holder, target});
    }
  };
  const auto alive = [&](ProcessId p) { return !dead.contains(p); };
  const auto pick = [&](const std::vector<ProcessId>& v) {
    return v[rng.below(v.size())];
  };

  // BFS from the roots (ids 1..cfg.roots by construction) over the edge
  // mirror; stamps the current sim time on every live process that just
  // became unreachable, clears the stamp on anything reachable again.
  const auto refresh_unreachable = [&]() {
    const auto t0 = std::chrono::steady_clock::now();
    since.resize(id_counter + 1, kNoOnset);
    std::vector<std::vector<std::uint64_t>> adj(id_counter + 1);
    for (const auto& [holder, target] : edges) {
      adj[holder.value()].push_back(target.value());
    }
    std::vector<char> reached(id_counter + 1, 0);
    std::vector<std::uint64_t> stack;
    for (std::uint64_t r = 1; r <= cfg.roots; ++r) {
      reached[r] = 1;
      stack.push_back(r);
    }
    while (!stack.empty()) {
      const std::uint64_t v = stack.back();
      stack.pop_back();
      for (std::uint64_t w : adj[v]) {
        if (!reached[w]) {
          reached[w] = 1;
          stack.push_back(w);
        }
      }
    }
    const SimTime now = sim.now();
    for (std::uint64_t v = 1; v <= id_counter; ++v) {
      if (reached[v] || dead.contains(ProcessId{v})) {
        since[v] = kNoOnset;
      } else if (since[v] == kNoOnset) {
        since[v] = now;  // newly unreachable; keep the earliest onset
      }
    }
    oracle_wall += std::chrono::steady_clock::now() - t0;
  };

  const auto start = std::chrono::steady_clock::now();

  for (std::uint64_t r = 0; r < cfg.roots; ++r) {
    const ProcessId root = ProcessId{++id_counter};
    eng.add_process(root, site_for(root.value()), /*is_root=*/true);
    population.push_back(root);
  }

  // Build-up: every newborn hangs off a random live process (edges cross
  // sites by construction: ids round-robin over all sites).
  std::uint64_t batch = 0;
  while (id_counter < cfg.processes) {
    ProcessId creator = pick(population);
    if (!alive(creator)) {
      continue;
    }
    const ProcessId newborn = ProcessId{++id_counter};
    eng.create_object(creator, newborn, site_for(newborn.value()));
    population.push_back(newborn);
    add_edge(creator, newborn);
    if (++batch % 512 == 0) {
      sim.run();
    }
  }
  sim.run();
  // Post-population, pre-churn: what the tables cost at rest.
  const std::optional<std::uint64_t> rss_after_build = current_rss_kb();

  // Sustained churn: create / cross-link (cycles included) / sever whole
  // branches — plus cross-site hand-offs when the migration knob is on;
  // sweep periodically like a deployed system. The migration share comes
  // out of the CREATE share: severing stays at its full rate, because
  // starving collection makes the population (and the relayed row maps
  // every control message carries) grow without bound — that measures
  // leak dynamics, not hand-off cost.
  const std::uint64_t migrate_cut = cfg.migrate_pct;
  CGC_CHECK_MSG(migrate_cut <= 30,
                "migrate_pct beyond the create share would silently change "
                "the link/sever mix and no longer isolate hand-off cost");
  // Budget-bounded sweeps: each periodic round is a chain of slices with
  // the network drained between them, so the measured pause is one slice,
  // not one population scan. The budget scales with the population the
  // way a deployed incremental collector's timeslice would.
  const std::uint64_t sweep_budget =
      std::max<std::uint64_t>(128, cfg.processes / 16);
  const auto budgeted_round = [&]() {
    while (!eng.sweep_slice(sweep_budget)) {
      sim.run();
    }
    sim.run();
  };
  for (std::uint64_t op = 0; op < cfg.churn_ops; ++op) {
    const std::uint64_t dice = rng.below(100);
    if (dice < migrate_cut) {
      // Hand a random live process off to a random other site (the load
      // balancer's move). In-transit movers are skipped, like every
      // other op whose actor is unavailable.
      const ProcessId p = pick(population);
      if (alive(p) && !eng.migrating(p)) {
        const SiteId dst = SiteId{rng.below(cfg.sites)};
        eng.migrate(p, dst);  // no-op when dst is already p's site
      }
    } else if (dice < 30) {
      const ProcessId creator = pick(population);
      if (alive(creator) && !eng.migrating(creator)) {
        const ProcessId newborn = ProcessId{++id_counter};
        eng.create_object(creator, newborn, site_for(newborn.value()));
        population.push_back(newborn);
        add_edge(creator, newborn);
      }
    } else if (dice < 55) {
      // i introduces itself to j (possible cycle edge j -> i).
      const ProcessId i = pick(population);
      const ProcessId j = pick(population);
      if (i != j && alive(i) && alive(j) && !eng.migrating(i)) {
        eng.send_own_ref(i, j);
        add_edge(j, i);
      }
    } else if (dice < 70 && !edges.empty()) {
      // i forwards a held reference of k to j (lazy third-party, §3.4).
      const auto [i, k] = edges[rng.below(edges.size())];
      const ProcessId j = pick(population);
      if (j != k && j != i && alive(i) && alive(j) && alive(k) &&
          !eng.migrating(i)) {
        eng.send_third_party_ref(i, k, j);
        add_edge(j, k);
      }
    } else if (!edges.empty()) {
      // Sever a random edge; cascades below it become garbage for the
      // engine to find.
      const std::size_t idx = rng.below(edges.size());
      const auto [holder, target] = edges[idx];
      edges[idx] = edges.back();
      edges.pop_back();
      edge_set.erase({holder, target});
      if (alive(holder) && alive(target) && !eng.migrating(holder)) {
        eng.drop_ref(holder, target);
      }
    }
    if ((op + 1) % 512 == 0) {
      refresh_unreachable();  // stamp onsets before the engine can collect
      sim.run();
    }
    if ((op + 1) % 8192 == 0) {
      budgeted_round();
    }
  }
  refresh_unreachable();
  sim.run();
  // Cleanup to the removal fixpoint. A two-round idle window is enough
  // here even under the generational filter: garbage rows are kept hot by
  // the destruction cascade itself (every delivered decision re-touches
  // its targets), so removals land round after round until the cascade is
  // done — the stretched kMaxPeriod window the conformance tests use
  // guards cold-row corner cases this workload does not produce, and
  // every extra trailing round would bill re-verification traffic to
  // control_bytes_per_reclaimed.
  std::size_t idle_rounds = 0;
  for (int round = 0; round < 16 && idle_rounds < 2; ++round) {
    const std::size_t before = eng.removed().size();
    budgeted_round();
    idle_rounds = eng.removed().size() != before ? 0 : idle_rounds + 1;
  }

  const auto end = std::chrono::steady_clock::now() - oracle_wall;

  ScaleResult res;
  res.cfg = cfg;
  res.events = sim.executed();
  res.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  res.events_per_sec =
      res.wall_ms > 0 ? static_cast<double>(res.events) / (res.wall_ms / 1e3)
                      : 0;
  res.reclaimed = eng.removed().size();
  res.wire_bytes = net.stats().packets().bytes_sent;
  res.bytes_per_reclaimed =
      res.reclaimed > 0
          ? static_cast<double>(res.wire_bytes) /
                static_cast<double>(res.reclaimed)
          : 0;
  res.control_bytes = net.stats().control_bytes_sent();
  res.control_bytes_per_reclaimed =
      res.reclaimed > 0
          ? static_cast<double>(res.control_bytes) /
                static_cast<double>(res.reclaimed)
          : 0;
  res.packets = net.stats().packets().sent;
  res.log_entries = eng.total_log_entries();
  res.peak_rss_kb = peak_rss_kb();
  res.rss_after_build_kb = rss_after_build;
  res.pool_reserved_kb = eng.pool().bytes_reserved() / 1024;
  res.pool_live_kb = eng.pool().bytes_live() / 1024;
  res.migration = eng.migration_stats();
  res.migration_bytes = net.stats().of(MessageKind::kMigration).bytes_sent;
  res.latency = latency;
  res.sweep_pause = reg.histogram("ggd.sweep_pause_us");
  res.sweep_slices = reg.histogram("ggd.sweep_slices_per_round");
  res.sweep_budget = sweep_budget;
  return res;
}

/// Threaded-runtime throughput: the same kind of generated workload the
/// conformance tier uses, run live through `--threads N` worker sites
/// (clean network — this measures the mailbox/worker machinery, not fault
/// recovery). The reported number is mailbox envelopes consumed per
/// wall-clock second: ops, packets, and sweeps all count, because each is
/// one unit of the runtime's actual work.
struct ThreadedBenchResult {
  std::uint64_t threads = 0;
  std::uint64_t ops = 0;
  std::uint64_t envelopes = 0;
  double wall_ms = 0;
  double envelopes_per_sec = 0;
  std::uint64_t reclaimed = 0;
};

ThreadedBenchResult run_threaded_bench(std::uint64_t threads,
                                       std::size_t num_ops) {
  // Hard pin, not advice: per-envelope cost is O(population) (every
  // dependency-vector merge walks the live row set), so doubling the op
  // count much more than doubles the wall clock. 2k ops is >10x the time
  // of 1k on the one-core CI runner and trips every sane watchdog.
  CGC_CHECK_MSG(num_ops <= 1'000,
                "threaded bench is pinned at 1k ops: per-envelope cost is "
                "O(population), so larger traces grow superlinearly and "
                "time out one-core CI");
  ScenarioSpec spec;  // defaults: mixed weights, fault-free
  spec.seed = 42;
  spec.num_ops = num_ops;
  spec.num_sites = threads;
  const std::vector<MutatorOp> ops = generate_trace(spec);
  runtime_mt::ThreadedConfig cfg;
  cfg.num_threads = threads;
  // Per-envelope cost grows with the live population (dependency-vector
  // merges are O(population)), so a 1k-op trace is minutes of work on a
  // one-core CI box — give each quiescence wait generous headroom.
  cfg.watchdog_ms = 300'000;
  const auto start = std::chrono::steady_clock::now();
  const runtime_mt::ThreadedRun run = runtime_mt::run_threaded(spec, ops, cfg);
  const auto end = std::chrono::steady_clock::now();
  CGC_CHECK_MSG(run.ok(), "threaded bench run tripped the watchdog");

  ThreadedBenchResult res;
  res.threads = threads;
  res.ops = ops.size();
  res.envelopes = run.envelopes;
  res.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  res.envelopes_per_sec =
      res.wall_ms > 0
          ? static_cast<double>(res.envelopes) / (res.wall_ms / 1e3)
          : 0;
  res.reclaimed = run.removed.size();
  return res;
}

void emit(const std::string& path, const std::vector<ScaleResult>& results,
          const ThreadedBenchResult& threaded) {
  std::ofstream os(path);
  benchjson::Json json(os);
  json.open('{');
  json.key("bench");
  json.value(std::string("scale"));
  benchjson::write_provenance(json);
  json.key("configs");
  json.open('{');
  for (const ScaleResult& r : results) {
    json.key(r.cfg.name);
    json.open('{');
    json.key("sites");
    json.value(r.cfg.sites);
    json.key("roots");
    json.value(r.cfg.roots);
    json.key("processes");
    json.value(r.cfg.processes);
    json.key("churn_ops");
    json.value(r.cfg.churn_ops);
    json.key("events");
    json.value(r.events);
    json.key("wall_ms");
    json.value(static_cast<std::uint64_t>(r.wall_ms));
    json.key("events_per_sec");
    json.value(static_cast<std::uint64_t>(r.events_per_sec));
    json.key("reclaimed");
    json.value(r.reclaimed);
    json.key("wire_bytes");
    json.value(r.wire_bytes);
    json.key("bytes_per_reclaimed");
    json.value(static_cast<std::uint64_t>(r.bytes_per_reclaimed));
    json.key("control_bytes");
    json.value(r.control_bytes);
    json.key("control_bytes_per_reclaimed");
    json.value(static_cast<std::uint64_t>(r.control_bytes_per_reclaimed));
    json.key("packets");
    json.value(r.packets);
    json.key("log_entries");
    json.value(r.log_entries);
    benchjson::write_latency_fields(json, r.latency);
    benchjson::write_sweep_pause_fields(json, r.sweep_pause);
    // Unit-suffixed pause alias plus the slicing shape: together they say
    // "the pause ceiling is this many µs because rounds split into this
    // many budget slices". The regression gate reads the alias.
    json.key("sweep_budget");
    json.value(r.sweep_budget);
    json.key("sweep_pause_p99_us");
    json.value(r.sweep_pause.percentile(99));
    json.key("sweep_slices_per_round");
    json.value(r.sweep_slices.percentile(50));
    if (r.peak_rss_kb.has_value()) {
      // Omitted entirely when unmeasurable: a literal 0 would be read as
      // a (miraculous) measurement by downstream tooling.
      json.key("peak_rss_kb");
      json.value(*r.peak_rss_kb);
    }
    if (r.rss_after_build_kb.has_value()) {
      json.key("rss_after_build_kb");
      json.value(*r.rss_after_build_kb);
    }
    if (r.cfg.migrate_pct > 0) {
      json.key("migrate_pct");
      json.value(r.cfg.migrate_pct);
      json.key("handoffs");
      json.value(r.migration.completed);
      json.key("handoff_redirects");
      json.value(r.migration.forwarded);
      json.key("handoff_bounces");
      json.value(r.migration.bounced);
      json.key("handoff_reemissions");
      json.value(r.migration.reemitted);
      json.key("migration_bytes");
      json.value(r.migration_bytes);
    }
    json.close('}');
  }
  json.close('}');
  json.key("threaded");
  json.open('{');
  json.key("threads");
  json.value(threaded.threads);
  json.key("ops");
  json.value(threaded.ops);
  json.key("envelopes");
  json.value(threaded.envelopes);
  json.key("wall_ms");
  json.value(static_cast<std::uint64_t>(threaded.wall_ms));
  json.key("threaded_events_per_sec");
  json.value(static_cast<std::uint64_t>(threaded.envelopes_per_sec));
  json.key("reclaimed");
  json.value(threaded.reclaimed);
  json.close('}');
  json.close('}');
  os << '\n';
  std::cout << "wrote " << path << '\n';
}

}  // namespace
}  // namespace cgc

int main(int argc, char** argv) {
  using namespace cgc;
  bool quick = false;
  std::uint64_t threads = 4;
  // `--config NAME` runs a single rung (and skips the threaded slice):
  // the memory-diet workflow measures one config's RSS without the
  // VmHWM high-water mark being set by an earlier, different rung.
  std::string only_config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr,
                                                         10));
      if (threads == 0) {
        threads = 1;
      }
    } else if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      only_config = argv[++i];
    }
  }

  std::vector<ScaleConfig> configs = {
      {"small", /*sites=*/16, /*roots=*/32, /*processes=*/1'000,
       /*churn=*/4'000},
      // Same workload with 8% of churn ops handing processes off between
      // sites: the delta against "small" is the cost of migration.
      {"small_migrate", 16, 32, 1'000, 4'000, /*migrate_pct=*/8},
  };
  if (!quick) {
    configs.push_back({"medium", 64, 128, 5'000, 20'000});
    configs.push_back({"medium_migrate", 64, 128, 5'000, 20'000, 8});
    configs.push_back({"large", 256, 512, 20'000, 60'000});
    // The rung the memory diet unlocks: 5x the large population. Churn is
    // kept modest — the point of this rung is holding (and sweeping) a
    // 100k-process table, not maximum op throughput — and it runs on the
    // single-threaded simulator only (the threaded slice stays pinned at
    // its own 1k-op budget below).
    configs.push_back({"huge", 512, 1024, 100'000, 20'000});
  }

  std::cout << "scale tier: dense-core engine under sustained churn\n";
  std::vector<ScaleResult> results;
  for (const ScaleConfig& cfg : configs) {
    if (!only_config.empty() && cfg.name != only_config) {
      continue;
    }
    ScaleResult r = run_scale(cfg);
    std::cout << cfg.name << ": sites=" << cfg.sites
              << " procs=" << cfg.processes << " churn=" << cfg.churn_ops
              << " | events=" << r.events << " wall_ms="
              << static_cast<std::uint64_t>(r.wall_ms)
              << " events/s=" << static_cast<std::uint64_t>(r.events_per_sec)
              << " reclaimed=" << r.reclaimed << " bytes/reclaimed="
              << static_cast<std::uint64_t>(r.bytes_per_reclaimed)
              << " ctrl_bytes/reclaimed="
              << static_cast<std::uint64_t>(r.control_bytes_per_reclaimed)
              << " latency_p99=" << r.latency.percentile(99)
              << " sweep_pause_p99=" << r.sweep_pause.percentile(99)
              << " sweep_slices_p50=" << r.sweep_slices.percentile(50);
    if (r.peak_rss_kb.has_value()) {
      std::cout << " peak_rss_kb=" << *r.peak_rss_kb;
    }
    if (r.rss_after_build_kb.has_value()) {
      std::cout << " rss_after_build_kb=" << *r.rss_after_build_kb;
    }
    std::cout << " pool_reserved_kb=" << r.pool_reserved_kb
              << " pool_live_kb=" << r.pool_live_kb;
    if (cfg.migrate_pct > 0) {
      std::cout << " handoffs=" << r.migration.completed
                << " redirects=" << r.migration.forwarded
                << " migration_bytes=" << r.migration_bytes;
    }
    std::cout << '\n';
    results.push_back(std::move(r));
  }
  // The threaded slice runs on BOTH budgets: CI's --quick path is what
  // feeds the committed BENCH_scale.json, and the field guard expects
  // threaded_events_per_sec there. Workers coalesce outbound flushes
  // behind a byte/op budget (ThreadedConfig::coalesce_*), which makes a
  // 1k-op workload affordable here. Don't push past ~1k: per-envelope
  // cost scales with the live population, so 2k ops is not 2x but >10x
  // the wall clock and blows any sane watchdog on a one-core runner.
  const ThreadedBenchResult threaded =
      only_config.empty() ? run_threaded_bench(threads, 1'000)
                          : ThreadedBenchResult{};
  std::cout << "threaded: threads=" << threaded.threads
            << " ops=" << threaded.ops << " envelopes=" << threaded.envelopes
            << " wall_ms=" << static_cast<std::uint64_t>(threaded.wall_ms)
            << " envelopes/s="
            << static_cast<std::uint64_t>(threaded.envelopes_per_sec)
            << " reclaimed=" << threaded.reclaimed << '\n';
  if (only_config.empty()) {
    emit("BENCH_scale.json", results, threaded);
  }
  return 0;
}
