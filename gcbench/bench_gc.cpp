// bench_gc: the repository benchmark for the global garbage detector.
//
// Usage:
//   bench_gc --workload NAME --seed N [--seconds S] [--trace FILE]
//
// A run is a warm-up pass and then whole passes of one workload for about
// S seconds (at least three). A pass builds its inputs from the seed, sets
// the system up, drives the mutator in a closed loop (each op is issued
// only after the previous op's traffic has drained, or, on threads, after
// its wave has quiesced), runs sweep rounds to the collection fixpoint,
// and then checks the result against a ground truth the system cannot
// see. Every pass of a run sees the same inputs; on the simulator every
// pass must also produce the same counts, byte for byte.
//
// Workloads (see README.md for why each exists):
//   gen_cyclic  simulator, 3 sites, a generated trace of rings of cyclic
//               garbage built from third-party forwards
//   churn       simulator, 128 sites, sliding window of 12-object
//               structures, with packet loss, duplication and migration
//   big_heap    the churn driver at 256 sites with a larger, fault-free
//               window: holding and sweeping a mostly cold heap
//   threaded    the gen_cyclic trace on 3 SiteWorker threads
//
// Output is one `name value unit` line per metric on stdout. The
// end-to-end metrics come from untraced passes. With --trace, passes
// alternate untraced and traced; the traced ones time every call into a
// layer (spans) and the per-layer metrics are printed too, and the first
// traced pass's spans are written to FILE as a Chrome trace.
//
// Checker time (the bench's own edge mirror and its BFS, the reachability
// oracle, the packet ledger) is timed separately and kept out of every
// rate and latency.
// A safety violation (a reachable process removed), or a threaded run that
// never went quiet, exits 3 and prints no metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/rng.hpp"
#include "ggd/engine.hpp"
#include "ggd/sweep.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "oracle/reachability_oracle.hpp"
#include "paced_threaded.hpp"
#include "sim/simulator.hpp"
#include "tracer.hpp"
#include "wire/trace.hpp"
#include "wire_ledger.hpp"

namespace gcb {
namespace {

using cgc::MessageKind;
using cgc::MutatorOp;
using cgc::ProcessId;
using cgc::SiteId;
using cgc::SimTime;

using Metrics = std::map<std::string, double>;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What a user of the detector sees. Every workload prints all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "ops/s"},
    {"setup_s", "s"},
    {"reclaim_latency_p50_ops", "ops"},
    {"reclaim_latency_p99_ops", "ops"},
    {"ctrl_bytes_per_reclaimed", "B"},
    {"ctrl_msgs_per_reclaimed", "msgs"},
    {"peak_rss_mb", "MB"},
};

/// One layer at a time. Every workload prints all of them; a layer a
/// workload does not run reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"ggd.mutator_s", "s"},
    {"ggd.mutator_calls", "count"},
    {"ggd.deliver_s.ref", "s"},
    {"ggd.deliver_s.vector", "s"},
    {"ggd.deliver_s.destruction", "s"},
    {"ggd.deliver_s.inquiry", "s"},
    {"ggd.deliver_s.migration", "s"},
    {"ggd.deliver_us_p50", "us"},
    {"ggd.deliver_us_p99", "us"},
    {"ggd.sweep_s", "s"},
    {"ggd.sweep_slices", "count"},
    {"ggd.sweep_slices_per_round", "count"},
    {"ggd.sweep_pause_p50_us", "us"},
    {"ggd.sweep_pause_p90_us", "us"},
    {"ggd.walks", "count"},
    {"ggd.walk_consulted_p50", "count"},
    {"ggd.walk_yield", "frac"},
    {"ggd.walks_blocked", "count"},
    {"ggd.inquiries", "count"},
    {"ggd.relay_rows_p50", "count"},
    {"ggd.destructions_reemitted", "count"},
    {"ggd.handoff_done", "count"},
    {"ggd.handoff_redirects", "count"},
    {"ggd.handoff_bounces", "count"},
    {"ggd.handoff_reemissions", "count"},
    {"wire.ctrl_bytes.rows", "B"},
    {"wire.ctrl_bytes.v", "B"},
    {"wire.ctrl_bytes.self_row", "B"},
    {"wire.ctrl_bytes.behalf", "B"},
    {"wire.ctrl_bytes.behalf_rows", "B"},
    {"wire.ctrl_bytes.row_acks", "B"},
    {"wire.ctrl_bytes.dead", "B"},
    {"wire.ctrl_bytes.other", "B"},
    {"wire.bytes.ref", "B"},
    {"wire.bytes.vector", "B"},
    {"wire.bytes.destruction", "B"},
    {"wire.bytes.inquiry", "B"},
    {"wire.bytes.migration", "B"},
    {"wire.decode_ns_per_byte", "ns/B"},
    {"wire.encode_ns_per_byte", "ns/B"},
    {"vclock.v_entries_mean", "count"},
    {"vclock.rows_per_msg_mean", "count"},
    {"vclock.row_entries_mean", "count"},
    {"vclock.dead_ids_per_msg_first_decile", "count"},
    {"vclock.dead_ids_per_msg_last_decile", "count"},
    {"vclock.log_entries_end", "count"},
    {"net.packets", "count"},
    {"net.msgs_per_packet", "count"},
    {"net.packet_bytes_mean", "B"},
    {"net.packets_dropped", "count"},
    {"net.packets_duplicated", "count"},
    {"sim.events", "count"},
    {"sim.drain_self_s", "s"},
    {"sim.reclaim_latency_p50_ticks", "ticks"},
    {"sim.reclaim_latency_p99_ticks", "ticks"},
    {"pool.reserved_mb", "MB"},
    {"pool.live_mb", "MB"},
    {"rss_after_setup_mb", "MB"},
    {"mt.envelopes", "count"},
    {"mt.envelopes_per_op", "count"},
    {"mt.packets", "count"},
    {"mt.ctrl_bytes", "B"},
    {"mt.ops_skipped", "count"},
    {"mt.wave_drain_ms_p50", "ms"},
    {"mt.wave_drain_ms_p99", "ms"},
    {"mt.sweep_round_ms_p50", "ms"},
    {"host.reference_ms", "ms"},
    {"bench.driver_s", "s"},
    {"check.oracle_s", "s"},
    {"gc.reclaimed", "count"},
    {"gc.true_garbage", "count"},
    {"trace.spans_dropped", "count"},
    {"trace.layer_coverage_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

constexpr std::size_t kSpanCap = 2'000'000;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;  // each with an untraced twin
constexpr std::uint64_t kWireCapBytes = 64ull << 20;

// ------------------------------------------------------------- helpers --

/// Reads one `Vm*:` line of /proc/self/status, in MB (0 when absent).
double proc_status_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, n, key) == 0) {
      std::istringstream ss(line.substr(n));
      double kb = 0;
      if (ss >> kb) {
        return kb / 1024.0;
      }
    }
  }
  return 0;
}

/// Starts a fresh peak-RSS window: returns freed heap memory to the system
/// and resets VmHWM to the current VmRSS (Linux), so each pass's peak is
/// its own and not the high-water mark of the passes before it.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The reference loop's time on a quiet host of the kind the benchmark was
/// defined on (4-vCPU KVM guest, Xeon); it only scales the reported rates.
constexpr double kReferenceNominalMs = 18.0;

/// Times a fixed register-only loop, in ms. The loop touches no memory and
/// no code of the system under test, so its time moves only with the
/// host's speed: other tenants of the machine slow it when they slow the
/// pass it brackets (README.md, "Host speed", has the measurements; the
/// same loop on four threads at once, and a token passed around four
/// threads, tracked the host worse).
std::atomic<std::uint64_t> reference_sink{0};

double reference_loop_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 8'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += (x & 7) == 3 ? x : x >> 3;
  }
  reference_sink.store(acc, std::memory_order_relaxed);  // keeps the loop
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return v[i];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The bench clock of one pass: wall time minus the time spent checking.
class Meter {
 public:
  explicit Meter(Tracer* tracer) : tracer_(tracer), origin_(now_ns()) {}

  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  [[nodiscard]] double ms() const {
    return static_cast<double>(now_ns() - origin_ - excluded_ns_) / 1e6;
  }

  /// Runs `f` as checker work: traced as `check`, kept off the clock.
  template <typename F>
  decltype(auto) check(F&& f) {
    struct Off {
      Meter* m;
      std::int64_t t0;
      ~Off() { m->excluded_ns_ += now_ns() - t0; }
    } off{this, now_ns()};
    Scope span(tracer_, Layer::kCheck);
    return f();
  }

  [[nodiscard]] double check_s() const { return ns_to_s(excluded_ns_); }

 private:
  Tracer* tracer_;
  std::int64_t origin_;
  std::int64_t excluded_ns_ = 0;
};

/// Everything one pass reports.
struct PassResult {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double reference_ms = 0;  // the reference loop, around this pass
  double run_s = 0;  // bench clock, first op to the collection fixpoint
  std::uint64_t ops = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t true_garbage = 0;
  std::uint64_t residual = 0;
  std::uint64_t skipped = 0;
  std::vector<std::string> violations;
  bool codec_ok = true;
  std::uint64_t ctrl_bytes = 0;
  std::uint64_t ctrl_msgs = 0;
  std::vector<double> latency_ms;
  cgc::obs::TickHistogram latency_ticks;
  /// Counts that repeat exactly from pass to pass (simulator only).
  std::string fingerprint;
  Metrics layer;  // traced passes only
};

/// What a traced pass collects besides its spans.
struct LayerAccum {
  std::vector<double> deliver_ns;  // one per delivered message
  std::vector<double> slice_ns;    // one per sweep slice
};

// -------------------------------------------------------- edge mirror --

/// The bench's view of the delivered-edge graph of one simulated system,
/// and the checks made against it. Ids are dense from 1. An edge appears
/// when its reference is delivered (the engine's hook) and disappears when
/// the bench issues the drop.
///
/// `check()` runs right before each batch of drops. Drops are the only
/// edge removals, so the reachable set at a check is the reachable set at
/// every removal since the previous check: a process removed in between
/// and reachable at the check was removed while reachable. The same check
/// stamps every newly unreachable process with its unreachability onset:
/// the end of the previous drop batch, or its birth if it was born after
/// that (its creating reference never arrived).
class Mirror {
 public:
  Mirror(cgc::GgdEngine& eng, cgc::Simulator& sim, Meter& meter)
      : sim_(sim), meter_(meter), procs_(1), out_(1) {
    eng.set_on_ref_delivered([this](ProcessId holder, ProcessId target) {
      meter_.check([&] {
        if (edges_.insert(key(holder.value(), target.value())).second) {
          out_[holder.value()].push_back(
              static_cast<std::uint32_t>(target.value()));
        }
      });
    });
    eng.set_on_removed([this](ProcessId p) {
      Proc& pr = procs_[p.value()];
      pr.removed_ms = meter_.ms();
      pr.removed_tick = sim_.now();
      removed_since_check_.push_back(static_cast<std::uint32_t>(p.value()));
    });
  }

  void add_root(std::uint64_t id) {
    add(id, /*root=*/true);
    roots_.push_back(static_cast<std::uint32_t>(id));
  }
  void add_node(std::uint64_t id) {
    add(id, /*root=*/false);
    unassigned_.push_back(static_cast<std::uint32_t>(id));
  }
  [[nodiscard]] bool holds(std::uint64_t holder, std::uint64_t target) const {
    return edges_.contains(key(holder, target));
  }
  [[nodiscard]] bool removed(std::uint64_t id) const {
    return procs_[id].removed_ms >= 0;
  }

  /// The bench dropped the edge `holder -> target`.
  void drop(std::uint64_t holder, std::uint64_t target) {
    meter_.check([&] {
      edges_.erase(key(holder, target));
      auto& o = out_[holder];
      o.erase(std::find(o.begin(), o.end(), target));
    });
  }
  /// Ends a batch of drops: its time is the onset of what it cut off.
  void end_drops() {
    last_drop_ms_ = meter_.ms();
    last_drop_tick_ = sim_.now();
  }

  void check() {
    meter_.check([&] {
      reached_.assign(procs_.size(), 0);
      std::vector<std::uint32_t> stack(roots_);
      for (std::uint32_t r : roots_) {
        reached_[r] = 1;
      }
      while (!stack.empty()) {
        const std::uint32_t v = stack.back();
        stack.pop_back();
        for (std::uint32_t t : out_[v]) {
          if (!reached_[t]) {
            reached_[t] = 1;
            stack.push_back(t);
          }
        }
      }
      for (std::uint32_t p : removed_since_check_) {
        if (reached_[p]) {
          violations_.push_back("process " + std::to_string(p) +
                                " removed while reachable");
        }
      }
      removed_since_check_.clear();
      std::size_t keep = 0;
      for (std::uint32_t p : unassigned_) {
        Proc& pr = procs_[p];
        if (reached_[p]) {
          unassigned_[keep++] = p;
        } else if (pr.born_ms > last_drop_ms_) {
          pr.onset_ms = pr.born_ms;
          pr.onset_tick = pr.born_tick;
        } else {
          pr.onset_ms = last_drop_ms_;
          pr.onset_tick = last_drop_tick_;
        }
      }
      unassigned_.resize(keep);
    });
  }

  /// Final verdict, after a last `check()`: garbage, residual garbage,
  /// safety violations, and the latency of every removal made at or after
  /// `since_ms`.
  void finish(PassResult& r, double since_ms) const {
    r.violations.insert(r.violations.end(), violations_.begin(),
                        violations_.end());
    for (std::size_t p = 1; p < procs_.size(); ++p) {
      const Proc& pr = procs_[p];
      if (reached_[p] || pr.root) {
        continue;
      }
      ++r.true_garbage;
      if (pr.removed_ms < 0) {
        ++r.residual;
      } else if (pr.removed_ms >= since_ms) {
        r.latency_ms.push_back(pr.removed_ms - pr.onset_ms);
        r.latency_ticks.record(pr.removed_tick - pr.onset_tick);
      }
    }
  }

 private:
  struct Proc {
    bool root = false;
    double born_ms = 0;
    SimTime born_tick = 0;
    double onset_ms = 0;
    SimTime onset_tick = 0;
    double removed_ms = -1;
    SimTime removed_tick = 0;
  };

  static std::uint64_t key(std::uint64_t holder, std::uint64_t target) {
    return (holder << 32) | target;
  }
  void add(std::uint64_t id, bool root) {
    CGC_CHECK_MSG(id == procs_.size(), "mirror ids must be dense");
    procs_.push_back(Proc{root, meter_.ms(), sim_.now()});
    out_.emplace_back();
  }

  cgc::Simulator& sim_;
  Meter& meter_;
  std::vector<Proc> procs_;
  std::vector<std::vector<std::uint32_t>> out_;
  std::unordered_set<std::uint64_t> edges_;
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint32_t> removed_since_check_;
  std::vector<std::uint32_t> unassigned_;  // non-roots with no onset yet
  std::vector<char> reached_;
  std::vector<std::string> violations_;
  double last_drop_ms_ = 0;
  SimTime last_drop_tick_ = 0;
};

// ----------------------------------------------------- simulator world --

/// Times every delivered message, then hands it to the engine. Registered
/// for every site before the engine attaches, so it sees all traffic.
class TimingMailbox : public cgc::wire::Mailbox {
 public:
  TimingMailbox(cgc::GgdEngine& eng, Tracer& tracer,
                std::vector<double>& deliver_ns)
      : eng_(eng), tracer_(tracer), deliver_ns_(deliver_ns) {}

  void deliver(SiteId from, SiteId to,
               const cgc::wire::WireMessage& msg) override {
    const std::int64_t t0 = now_ns();
    tracer_.begin(layer_for(msg.kind));
    eng_.deliver(from, to, msg);
    tracer_.end();
    deliver_ns_.push_back(static_cast<double>(now_ns() - t0));
  }

 private:
  static Layer layer_for(MessageKind k) {
    switch (k) {
      case MessageKind::kReferencePass:
        return Layer::kDeliverRef;
      case MessageKind::kGgdVector:
        return Layer::kDeliverVector;
      case MessageKind::kGgdDestruction:
        return Layer::kDeliverDestruction;
      case MessageKind::kGgdInquiry:
        return Layer::kDeliverInquiry;
      default:
        return Layer::kDeliverMigration;
    }
  }

  cgc::GgdEngine& eng_;
  Tracer& tracer_;
  std::vector<double>& deliver_ns_;
};

/// One simulated system: simulator, network, engine, and (traced) the
/// timing mailbox, metrics registry and capped packet capture.
struct SimWorld {
  SimWorld(const cgc::NetworkConfig& cfg, std::uint64_t sites, Tracer* tracer,
           LayerAccum* acc)
      : net(sim, cfg), eng(net), tracer(tracer) {
    if (acc != nullptr) {
      box = std::make_unique<TimingMailbox>(eng, *tracer, acc->deliver_ns);
      for (std::uint64_t s = 0; s < sites; ++s) {
        net.register_mailbox(SiteId{s}, *box);
      }
      eng.attach_obs(&reg, nullptr);
      net.set_trace(&wire);
    }
  }

  /// Runs the network to quiescence.
  void drain() {
    {
      Scope span(tracer, Layer::kDrain);
      sim.run();
    }
    if (box != nullptr && !wire_full) {
      const auto& packets = wire.packets();
      for (; wire_counted < packets.size(); ++wire_counted) {
        wire_bytes += packets[wire_counted].bytes.size();
      }
      if (wire_bytes >= kWireCapBytes) {
        net.set_trace(nullptr);
        wire_full = true;
      }
    }
  }

  /// One budgeted sweep round: slices with the network drained between.
  void sweep_round(std::uint64_t budget, LayerAccum* acc) {
    for (;;) {
      bool done = false;
      {
        const std::int64_t t0 = now_ns();
        Scope span(tracer, Layer::kSweep);
        done = eng.sweep_slice(budget);
        if (acc != nullptr) {
          acc->slice_ns.push_back(static_cast<double>(now_ns() - t0));
        }
      }
      drain();
      if (done) {
        return;
      }
    }
  }

  /// Budgeted rounds until nothing is removed and nothing is owed for
  /// 2 + kMaxPeriod rounds in a row (a cold row may wait a full period).
  void run_to_fixpoint(std::uint64_t budget, LayerAccum* acc) {
    constexpr std::size_t kIdleLimit =
        2 + static_cast<std::size_t>(cgc::sweep::GenerationTable::kMaxPeriod);
    std::size_t idle = 0;
    for (std::size_t r = 0; r < 64 && idle < kIdleLimit; ++r) {
      const std::size_t before = eng.removed().size();
      const bool owed = eng.pending_destruction_count() > 0 ||
                        eng.pending_handoff_count() > 0;
      sweep_round(budget, acc);
      idle = (eng.removed().size() != before || owed) ? 0 : idle + 1;
    }
  }

  cgc::Pool sim_pool;  // backs the event heap; outlives the simulator
  cgc::Simulator sim{&sim_pool};
  cgc::Network net;
  cgc::obs::Registry reg;  // outlives the engine, which caches pointers
  cgc::GgdEngine eng;
  Tracer* tracer;
  std::unique_ptr<TimingMailbox> box;
  cgc::wire::WireTrace wire;
  std::size_t wire_counted = 0;
  std::uint64_t wire_bytes = 0;
  bool wire_full = false;
};

/// The offline wire pass over a traced pass's packets: per-field control
/// bytes, per-kind bytes, codec speed and dependency-vector shape. False
/// when a packet does not round-trip through the codec.
bool wire_layer_metrics(
    const std::vector<const std::vector<std::uint8_t>*>& packets,
    const cgc::MessageStats& stats, Metrics& m) {
  WireLedger w;
  bool ok = true;
  for (const std::vector<std::uint8_t>* p : packets) {
    ok = w.add(*p) && ok;
  }
  for (int f = 0; f < WireLedger::kFieldCount; ++f) {
    const auto field = static_cast<WireLedger::Field>(f);
    m[std::string("wire.ctrl_bytes.") + WireLedger::field_name(field)] =
        static_cast<double>(w.field_bytes(field));
  }
  const auto bytes = [&](MessageKind k) {
    return static_cast<double>(stats.of(k).bytes_sent);
  };
  m["wire.bytes.ref"] = bytes(MessageKind::kReferencePass);
  m["wire.bytes.vector"] = bytes(MessageKind::kGgdVector);
  m["wire.bytes.destruction"] = bytes(MessageKind::kGgdDestruction);
  m["wire.bytes.inquiry"] = bytes(MessageKind::kGgdInquiry);
  m["wire.bytes.migration"] = bytes(MessageKind::kMigration);
  m["wire.decode_ns_per_byte"] = w.decode_ns_per_byte();
  m["wire.encode_ns_per_byte"] = w.encode_ns_per_byte();
  m["vclock.v_entries_mean"] = w.v_entries_mean();
  m["vclock.rows_per_msg_mean"] = w.rows_per_msg_mean();
  m["vclock.row_entries_mean"] = w.row_entries_mean();
  m["vclock.dead_ids_per_msg_first_decile"] = w.dead_first_decile();
  m["vclock.dead_ids_per_msg_last_decile"] = w.dead_last_decile();
  return ok;
}

/// The counts of a simulator pass that must repeat exactly in every pass of
/// a run.
std::string fingerprint(const PassResult& r, std::uint64_t events) {
  std::ostringstream fp;
  fp << r.ops << '/' << r.reclaimed << '/' << r.ctrl_bytes << '/'
     << r.ctrl_msgs << '/' << events << '/' << r.latency_ticks.sum() << '/'
     << r.residual;
  return fp.str();
}

/// Every per-layer metric of a traced simulator pass.
void sim_pass_layers(Meter& meter, const LayerAccum& acc, const SimWorld& w,
                     PassResult& r) {
  const Tracer& t = *meter.tracer();
  Metrics& m = r.layer;
  const auto total = [&](Layer l) { return ns_to_s(t.totals(l).total_ns); };
  const auto counter = [&](const char* name) {
    return static_cast<double>(w.reg.counters().at(name).value());
  };
  const auto hist_p50 = [&](const char* name) {
    return static_cast<double>(w.reg.histograms().at(name).percentile(50));
  };
  m["ggd.mutator_s"] = total(Layer::kMutator);
  m["ggd.mutator_calls"] = static_cast<double>(t.totals(Layer::kMutator).count);
  m["ggd.deliver_s.ref"] = total(Layer::kDeliverRef);
  m["ggd.deliver_s.vector"] = total(Layer::kDeliverVector);
  m["ggd.deliver_s.destruction"] = total(Layer::kDeliverDestruction);
  m["ggd.deliver_s.inquiry"] = total(Layer::kDeliverInquiry);
  m["ggd.deliver_s.migration"] = total(Layer::kDeliverMigration);
  m["ggd.deliver_us_p50"] = percentile(acc.deliver_ns, 50) / 1e3;
  m["ggd.deliver_us_p99"] = percentile(acc.deliver_ns, 99) / 1e3;
  m["ggd.sweep_s"] = total(Layer::kSweep);
  m["ggd.sweep_slices"] = static_cast<double>(t.totals(Layer::kSweep).count);
  m["ggd.sweep_slices_per_round"] = hist_p50("ggd.sweep_slices_per_round");
  m["ggd.sweep_pause_p50_us"] = percentile(acc.slice_ns, 50) / 1e3;
  m["ggd.sweep_pause_p90_us"] = percentile(acc.slice_ns, 90) / 1e3;
  const double walks = counter("ggd.walks");
  m["ggd.walks"] = walks;
  m["ggd.walk_consulted_p50"] = hist_p50("ggd.walk_consulted");
  m["ggd.walk_yield"] =
      walks == 0 ? 0 : counter("ggd.walks_unreachable") / walks;
  m["ggd.walks_blocked"] = counter("ggd.walks_blocked");
  m["ggd.inquiries"] = counter("ggd.inquiries");
  m["ggd.relay_rows_p50"] = hist_p50("ggd.relay_rows");
  m["ggd.destructions_reemitted"] = counter("ggd.destructions_reemitted");
  const cgc::GgdEngine::MigrationStats& h = w.eng.migration_stats();
  m["ggd.handoff_done"] = static_cast<double>(h.completed);
  m["ggd.handoff_redirects"] = static_cast<double>(h.forwarded);
  m["ggd.handoff_bounces"] = static_cast<double>(h.bounced);
  m["ggd.handoff_reemissions"] = static_cast<double>(h.reemitted);
  const auto& pk = w.net.stats().packets();
  const double packets = static_cast<double>(std::max<std::uint64_t>(pk.sent, 1));
  m["net.packets"] = static_cast<double>(pk.sent);
  m["net.msgs_per_packet"] =
      static_cast<double>(w.net.stats().total_sent()) / packets;
  m["net.packet_bytes_mean"] = static_cast<double>(pk.bytes_sent) / packets;
  m["net.packets_dropped"] = static_cast<double>(pk.dropped);
  m["net.packets_duplicated"] = static_cast<double>(pk.duplicated);
  m["sim.events"] = static_cast<double>(w.sim.executed());
  m["sim.drain_self_s"] = ns_to_s(t.totals(Layer::kDrain).self_ns);
  m["sim.reclaim_latency_p50_ticks"] =
      static_cast<double>(r.latency_ticks.percentile(50));
  m["sim.reclaim_latency_p99_ticks"] =
      static_cast<double>(r.latency_ticks.percentile(99));
  m["vclock.log_entries_end"] = static_cast<double>(w.eng.total_log_entries());
  m["pool.reserved_mb"] =
      static_cast<double>(w.eng.pool().bytes_reserved()) / 1048576.0;
  m["pool.live_mb"] = static_cast<double>(w.eng.pool().bytes_live()) / 1048576.0;
  meter.check([&] {
    std::vector<const std::vector<std::uint8_t>*> packets;
    for (const auto& p : w.wire.packets()) {
      packets.push_back(&p.bytes);
    }
    r.codec_ok = wire_layer_metrics(packets, w.net.stats(), r.layer);
  });
}

// ------------------------------------------------------- cyclic trace --

// The trace gen_cyclic and threaded both run: rings of cyclic garbage on
// 3 sites, small population (24 live rings of 13), heavy on third-party
// forwards.
constexpr std::uint64_t kCyclicSites = 3;
constexpr std::uint64_t kRingRoots = 3;
constexpr std::uint64_t kRings = 120;      // rings built per pass
constexpr std::uint64_t kRingWindow = 24;  // rings held live at once
constexpr std::uint64_t kRingMembers = 12;

/// Ops between sweep rounds while a trace runs (both hosts).
constexpr std::size_t kSweepEveryOps = 256;
constexpr std::uint64_t kTraceSweepBudget = 64;

/// Builds the cyclic trace for `seed`. Per ring: a root creates an anchor;
/// the anchor creates the members and forwards each member's successor to
/// it (a ring of third-party references); two members are introduced to
/// the anchor (back-edges), two members forward their successor one step
/// further (chords), and the anchor drops one member, which stays
/// reachable through the ring. One ring in four also receives the anchor
/// of an older ring of its root, which keeps that ring alive past its own
/// retirement. Once kRingWindow rings exist, each new ring retires the oldest
/// one: its root drops the anchor. Every op is legal in the trace order.
std::vector<MutatorOp> cyclic_trace(std::uint64_t seed) {
  cgc::Rng rng(seed ^ 0x72696e6773ULL);
  cgc::ReachabilityOracle oracle;
  std::vector<MutatorOp> ops;
  std::uint64_t next = 0;
  const auto emit = [&](MutatorOp op) {
    CGC_CHECK_MSG(oracle.apply(op), "cyclic trace produced an illegal op");
    ops.push_back(op);
  };
  const auto fresh = [&] { return ProcessId{++next}; };
  std::vector<ProcessId> roots;
  std::vector<ProcessId> anchors;
  for (std::uint64_t i = 0; i < kRingRoots; ++i) {
    roots.push_back(fresh());
    emit({MutatorOp::Kind::kAddRoot, roots.back(), {}, {}});
  }
  const std::uint64_t k = kRingMembers;
  for (std::uint64_t ring = 0; ring < kRings; ++ring) {
    const ProcessId root = roots[ring % kRingRoots];
    const ProcessId anchor = fresh();
    emit({MutatorOp::Kind::kCreate, anchor, root, {}});
    std::vector<ProcessId> m;
    for (std::uint64_t i = 0; i < k; ++i) {
      m.push_back(fresh());
      emit({MutatorOp::Kind::kCreate, m.back(), anchor, {}});
    }
    for (std::uint64_t i = 0; i < k; ++i) {
      emit({MutatorOp::Kind::kLinkThird, anchor, m[i], m[(i + 1) % k]});
    }
    for (int b = 0; b < 2; ++b) {
      const ProcessId j = m[rng.below(k)];
      if (!oracle.holds(j, anchor)) {
        emit({MutatorOp::Kind::kLinkOwn, anchor, j, {}});
      }
    }
    for (int b = 0; b < 2; ++b) {
      const std::uint64_t i = rng.below(k);
      const ProcessId to = m[(i + k - 1) % k];
      const ProcessId subject = m[(i + 1) % k];
      if (!oracle.holds(to, subject)) {
        emit({MutatorOp::Kind::kLinkThird, m[i], to, subject});
      }
    }
    emit({MutatorOp::Kind::kDrop, anchor, m[rng.below(k)], {}});
    // In every fourth round of the roots, the root hands the new anchor
    // the anchor it created three rounds earlier (garbage in pairs).
    if ((ring / kRingRoots) % 4 == 0 && ring >= 3 * kRingRoots) {
      const ProcessId old = anchors[ring - 3 * kRingRoots];
      if (oracle.holds(root, old)) {
        emit({MutatorOp::Kind::kLinkThird, root, anchor, old});
      }
    }
    anchors.push_back(anchor);
    if (ring >= kRingWindow) {
      const std::uint64_t old = ring - kRingWindow;
      const ProcessId old_root = roots[old % kRingRoots];
      if (oracle.holds(old_root, anchors[old])) {
        emit({MutatorOp::Kind::kDrop, old_root, anchors[old], {}});
      }
    }
  }
  return ops;
}

// ---------------------------------------------------------- gen_cyclic --

PassResult run_gen_cyclic(std::uint64_t seed, Meter& meter, LayerAccum* acc) {
  PassResult r;
  Tracer* tracer = meter.tracer();
  const double setup_start = meter.ms();
  std::vector<MutatorOp> ops;
  std::unique_ptr<SimWorld> w;
  {
    Scope span(tracer, Layer::kSetup);
    ops = cyclic_trace(seed);
    w = std::make_unique<SimWorld>(
        cgc::NetworkConfig{.min_latency = 1,
                           .max_latency = 4,
                           .seed = seed ^ 0x6e6574ULL},
        kCyclicSites, tracer, acc);
  }
  r.setup_s = (meter.ms() - setup_start) / 1e3;
  if (acc != nullptr) {
    r.layer["rss_after_setup_mb"] = proc_status_mb("VmRSS:");
  }
  cgc::GgdEngine& eng = w->eng;
  Mirror mirror(eng, w->sim, meter);
  const auto site = [](ProcessId p) { return SiteId{p.value() % kCyclicSites}; };

  // The trace is legal in its own order and the network is paced and
  // fault-free, so every op finds its references delivered.
  const double run_start = meter.ms();
  for (const MutatorOp& op : ops) {
    if (op.kind == MutatorOp::Kind::kDrop) {
      mirror.check();
    }
    {
      Scope span(tracer, Layer::kMutator);
      switch (op.kind) {
        case MutatorOp::Kind::kAddRoot:
          eng.add_process(op.a, site(op.a), /*is_root=*/true);
          break;
        case MutatorOp::Kind::kCreate:
          eng.create_object(op.b, op.a, site(op.a));
          break;
        case MutatorOp::Kind::kLinkOwn:
          eng.send_own_ref(op.a, op.b);
          break;
        case MutatorOp::Kind::kLinkThird:
          eng.send_third_party_ref(op.forwarder(), op.subject(),
                                   op.recipient());
          break;
        case MutatorOp::Kind::kDrop:
          eng.drop_ref(op.a, op.b);
          break;
        case MutatorOp::Kind::kMigrate:
          break;
      }
    }
    if (op.kind == MutatorOp::Kind::kAddRoot) {
      mirror.add_root(op.a.value());
    } else if (op.kind == MutatorOp::Kind::kCreate) {
      mirror.add_node(op.a.value());
    } else if (op.kind == MutatorOp::Kind::kDrop) {
      mirror.drop(op.a.value(), op.b.value());
      mirror.end_drops();
    }
    ++r.ops;
    w->drain();
    if (r.ops % kSweepEveryOps == 0) {
      w->sweep_round(kTraceSweepBudget, acc);
    }
  }
  w->run_to_fixpoint(kTraceSweepBudget, acc);
  r.run_s = (meter.ms() - run_start) / 1e3;

  mirror.check();
  mirror.finish(r, run_start);
  r.reclaimed = eng.removed().size();
  r.ctrl_bytes = w->net.stats().control_bytes_sent();
  r.ctrl_msgs = w->net.stats().control_sent();
  if (acc != nullptr) {
    sim_pass_layers(meter, *acc, *w, r);
  }
  r.fingerprint = fingerprint(r, w->sim.executed());
  return r;
}

// ------------------------------------------------------- churn, big_heap --

struct ChurnShape {
  std::uint64_t sites = 0;
  std::uint64_t window = 0;     // live structures held by the roots
  std::uint64_t turnover = 0;   // structures built and retired per pass
  std::uint64_t sweep_every = 0;  // structures between sweep rounds
  std::uint64_t sweep_budget = 0;
  double faults = 0;     // packet loss rate, and duplication rate
  double migrate_p = 0;  // chance per structure of one hand-off
};

/// Structure layout: object 0 is the anchor (created by a root); 1-3 are
/// its children; 4-11 are grandchildren under 1, 2 and 3.
constexpr int kObjects = 12;
constexpr int kParent[kObjects] = {-1, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3};
constexpr std::uint64_t kRootsPerWindow = 32;  // structures per root
constexpr std::uint64_t kRetireBatch = 16;

/// Set-up builds the engine, the roots and a full window of structures
/// (the warm-up). The measured part then builds `turnover` more, retiring
/// the oldest as it goes, sweeps every `sweep_every` structures, heals the
/// network and sweeps to the fixpoint. Rates and ratios cover the measured
/// part only.
PassResult run_churn(const ChurnShape& shape, std::uint64_t seed,
                     Meter& meter, LayerAccum* acc) {
  PassResult r;
  Tracer* tracer = meter.tracer();
  const std::uint64_t roots = std::max<std::uint64_t>(
      1, shape.window / kRootsPerWindow);
  cgc::Rng rng(seed ^ 0x636875726eULL);

  std::vector<std::array<std::uint32_t, kObjects>> structs;
  structs.reserve(shape.window + shape.turnover);
  std::unique_ptr<SimWorld> w;
  std::unique_ptr<Mirror> mirror;
  std::uint64_t next_id = roots;

  const auto create = [&](std::uint64_t creator) {
    const std::uint64_t id = ++next_id;
    mirror->add_node(id);
    {
      Scope span(tracer, Layer::kMutator);
      w->eng.create_object(ProcessId{creator}, ProcessId{id},
                           SiteId{id % shape.sites});
    }
    ++r.ops;
    return static_cast<std::uint32_t>(id);
  };

  // Builds structure `s`. Three levels, each waiting for the previous
  // level's references to arrive: an object acts only once the reference
  // chain from its root has been delivered.
  const auto build = [&](std::uint64_t s) {
    cgc::GgdEngine& eng = w->eng;
    const std::uint64_t root = 1 + s % roots;
    std::array<std::uint32_t, kObjects> ids{};
    std::array<bool, kObjects> usable{};
    ids[0] = create(root);
    w->drain();
    usable[0] = mirror->holds(root, ids[0]);
    for (int lo = 1, hi = 4; lo < kObjects; lo = hi, hi = kObjects) {
      for (int j = lo; j < hi; ++j) {
        if (usable[kParent[j]]) {
          ids[j] = create(ids[kParent[j]]);
        }
      }
      w->drain();
      for (int j = lo; j < hi; ++j) {
        usable[j] = usable[kParent[j]] && ids[j] != 0 &&
                    mirror->holds(ids[kParent[j]], ids[j]);
      }
    }
    // Two back-edges (a child introduced to its parent closes a cycle) and
    // one sibling forward (a parent hands one child to another).
    for (int b = 0; b < 2; ++b) {
      const int j = 1 + static_cast<int>(rng.below(kObjects - 1));
      if (usable[j]) {
        Scope span(tracer, Layer::kMutator);
        eng.send_own_ref(ProcessId{ids[kParent[j]]}, ProcessId{ids[j]});
        ++r.ops;
      }
    }
    {
      constexpr int kFirstChild[4] = {1, 4, 7, 9};
      constexpr int kChildren[4] = {3, 3, 2, 3};
      const int p = static_cast<int>(rng.below(4));
      const int x = kFirstChild[p] + static_cast<int>(rng.below(kChildren[p]));
      const int y = kFirstChild[p] + static_cast<int>(rng.below(kChildren[p]));
      if (x != y && usable[x] && usable[y]) {
        Scope span(tracer, Layer::kMutator);
        eng.send_third_party_ref(ProcessId{ids[p]}, ProcessId{ids[x]},
                                 ProcessId{ids[y]});
        ++r.ops;
      }
    }
    // Cross-structure reference, in every fourth round of the roots: the
    // root hands the new anchor the anchor it created three rounds
    // earlier, which then outlives its own retirement until the new one is
    // retired too. The older one never holds such a reference itself, so
    // garbage comes in pairs, never in chains.
    if ((s / roots) % 4 == 0 && s >= 3 * roots && usable[0]) {
      const std::uint32_t old_anchor = structs[s - 3 * roots][0];
      if (old_anchor != 0 && mirror->holds(root, old_anchor)) {
        Scope span(tracer, Layer::kMutator);
        eng.send_third_party_ref(ProcessId{root}, ProcessId{old_anchor},
                                 ProcessId{ids[0]});
        ++r.ops;
      }
    }
    // Hand-off of one object of an older live structure to another site.
    if (shape.migrate_p > 0 && rng.chance(shape.migrate_p) && s > 0) {
      const std::uint64_t back =
          1 + rng.below(std::min<std::uint64_t>(s, shape.window - 1));
      const std::uint32_t p = structs[s - back][rng.below(kObjects)];
      const SiteId dst{rng.below(shape.sites)};
      if (p != 0 && !mirror->removed(p) && !eng.migrating(ProcessId{p})) {
        eng.migrate(ProcessId{p}, dst);
      }
    }
    w->drain();
    structs.push_back(ids);
  };

  // Retires the `kRetireBatch` oldest structures: each root drops the
  // anchor it holds.
  const auto retire = [&](std::uint64_t first) {
    mirror->check();
    for (std::uint64_t x = first; x < first + kRetireBatch; ++x) {
      const std::uint64_t xr = 1 + x % roots;
      const std::uint32_t anchor = structs[x][0];
      if (anchor == 0 || !mirror->holds(xr, anchor)) {
        continue;
      }
      {
        Scope span(tracer, Layer::kMutator);
        w->eng.drop_ref(ProcessId{xr}, ProcessId{anchor});
      }
      ++r.ops;
      mirror->drop(xr, anchor);
    }
    mirror->end_drops();
    w->drain();
  };

  const double setup_start = meter.ms();
  {
    Scope span(tracer, Layer::kSetup);
    w = std::make_unique<SimWorld>(
        cgc::NetworkConfig{.min_latency = 1,
                           .max_latency = 3,
                           .drop_rate = shape.faults,
                           .duplicate_rate = shape.faults,
                           .seed = seed ^ 0x6e6574ULL},
        shape.sites, tracer, acc);
    mirror = std::make_unique<Mirror>(w->eng, w->sim, meter);
    for (std::uint64_t i = 1; i <= roots; ++i) {
      w->eng.add_process(ProcessId{i}, SiteId{i % shape.sites},
                         /*is_root=*/true);
      mirror->add_root(i);
    }
    for (std::uint64_t s = 0; s < shape.window; ++s) {
      build(s);
    }
  }
  r.setup_s = (meter.ms() - setup_start) / 1e3;
  if (acc != nullptr) {
    r.layer["rss_after_setup_mb"] = proc_status_mb("VmRSS:");
  }
  const cgc::MessageStats& stats = w->net.stats();
  const std::uint64_t bytes_before = stats.control_bytes_sent();
  const std::uint64_t msgs_before = stats.control_sent();
  const std::size_t removed_before = w->eng.removed().size();
  r.ops = 0;

  const double run_start = meter.ms();
  for (std::uint64_t s = shape.window; s < shape.window + shape.turnover;
       ++s) {
    build(s);
    if ((s + 1 - shape.window) % kRetireBatch == 0) {
      retire(s + 1 - shape.window - kRetireBatch);
    }
    if ((s + 1 - shape.window) % shape.sweep_every == 0) {
      w->sweep_round(shape.sweep_budget, acc);
    }
  }
  // Heal, then sweep to the fixpoint: completeness is promised only once
  // delivery is fair again.
  w->net.set_drop_rate(0);
  w->net.set_duplicate_rate(0);
  w->run_to_fixpoint(shape.sweep_budget, acc);
  r.run_s = (meter.ms() - run_start) / 1e3;

  mirror->check();
  mirror->finish(r, run_start);
  r.reclaimed = w->eng.removed().size() - removed_before;
  r.ctrl_bytes = stats.control_bytes_sent() - bytes_before;
  r.ctrl_msgs = stats.control_sent() - msgs_before;
  if (acc != nullptr) {
    sim_pass_layers(meter, *acc, *w, r);
  }
  r.fingerprint = fingerprint(r, w->sim.executed());
  return r;
}

// ------------------------------------------------------------ threaded --

PassResult run_threaded(std::uint64_t seed, Meter& meter, LayerAccum* acc) {
  PassResult r;
  Tracer* tracer = meter.tracer();
  const double setup_start = meter.ms();
  std::vector<MutatorOp> ops;
  {
    Scope span(tracer, Layer::kSetup);
    ops = cyclic_trace(seed);
  }
  r.setup_s = (meter.ms() - setup_start) / 1e3;
  if (acc != nullptr) {
    r.layer["rss_after_setup_mb"] = proc_status_mb("VmRSS:");
  }
  cgc::runtime_mt::ThreadedConfig cfg;
  cfg.num_threads = kCyclicSites;
  const PacedRun run =
      run_paced(ops, cfg, kSweepEveryOps, seed ^ 0x7ead11e5ULL, tracer,
                [&meter] { return meter.ms(); });
  r.setup_s += run.setup_ms / 1e3;
  r.run_s = run.run_ms / 1e3;
  r.ops = ops.size();
  r.skipped = run.skipped_ops;
  r.reclaimed = run.removed.size();
  r.ctrl_bytes = run.stats.control_bytes_sent();
  r.ctrl_msgs = run.stats.control_sent();
  for (const std::string& f : run.failures) {
    r.violations.push_back("threaded run: " + f);
  }

  // The delivered-edge graph, rebuilt from the merged input logs plus the
  // decoded reference transfers, each stamped with its dequeue sequence.
  meter.check([&] {
    struct Ev {
      std::uint64_t seq;
      int kind;  // 0 root, 1 node, 2 edge, 3 unedge
      ProcessId a;
      ProcessId b;
    };
    std::vector<Ev> evs;
    for (const auto& rec : run.schedule) {
      if (rec.kind != cgc::runtime_mt::Envelope::Kind::kOp || !rec.applied) {
        continue;
      }
      const MutatorOp& op = ops[rec.op_index];
      if (op.kind == MutatorOp::Kind::kAddRoot) {
        evs.push_back({rec.seq, 0, op.a, {}});
      } else if (op.kind == MutatorOp::Kind::kCreate) {
        evs.push_back({rec.seq, 1, op.a, {}});
      } else if (op.kind == MutatorOp::Kind::kDrop) {
        evs.push_back({rec.seq, 3, op.a, op.b});
      }
    }
    for (const auto& pkt : run.packets) {
      if (pkt.delivered_seq.empty()) {
        continue;
      }
      const std::uint64_t seq = *std::min_element(pkt.delivered_seq.begin(),
                                                  pkt.delivered_seq.end());
      cgc::wire::Decoder dec(*pkt.bytes);
      (void)dec.site_id();
      (void)dec.site_id();
      const std::uint64_t n = dec.varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto msg = cgc::wire::decode_message(dec);
        if (!msg.has_value()) {
          r.codec_ok = false;
          break;
        }
        if (const auto* t = std::get_if<cgc::wire::RefTransfer>(&msg->body)) {
          evs.push_back({seq, 2, t->recipient, t->subject});
        }
      }
    }
    std::stable_sort(evs.begin(), evs.end(), [](const Ev& x, const Ev& y) {
      return x.seq < y.seq;
    });
    cgc::ReachabilityOracle oracle;
    for (const Ev& e : evs) {
      switch (e.kind) {
        case 0:
          oracle.add_root(e.a, e.seq);
          break;
        case 1:
          oracle.add_node(e.a, e.seq);
          break;
        case 2:
          oracle.add_edge(e.a, e.b, e.seq);
          break;
        default:
          oracle.remove_edge(e.a, e.b, e.seq);
          break;
      }
    }
    // Safety at the quiescent end of every step that removed something
    // (the delivered graph there is a subset of the true one, so a removed
    // process reachable in it was reachable at its removal), then in the
    // final state.
    std::map<ProcessId, std::size_t> removed_step;
    for (std::size_t i = 0; i < run.steps.size(); ++i) {
      const PacedStep& step = run.steps[i];
      if (step.removed.empty()) {
        continue;
      }
      const std::set<ProcessId> live = oracle.reachable_at(step.horizon - 1);
      for (ProcessId p : step.removed) {
        removed_step.emplace(p, i);
        if (live.contains(p)) {
          r.violations.push_back("process " + p.str() +
                                 " removed while reachable");
        }
      }
    }
    for (std::string& v : oracle.safety_violations(run.removed)) {
      r.violations.push_back(std::move(v));
    }
    r.true_garbage = oracle.true_garbage().size();
    r.residual = oracle.residual_garbage(run.removed).size();
    // Latency: from the start of the step whose inputs made the process
    // unreachable to the end of the step that first saw it removed.
    for (const auto& [p, onset] : oracle.unreachable_since()) {
      auto it = removed_step.find(p);
      if (it == removed_step.end()) {
        continue;
      }
      std::size_t on = 0;
      while (on < run.steps.size() && run.steps[on].horizon <= onset) {
        ++on;
      }
      if (on <= it->second) {
        r.latency_ms.push_back(run.steps[it->second].end_ms -
                               run.steps[on].start_ms);
      }
    }
  });
  if (acc != nullptr) {
    meter.check([&] {
      std::vector<const std::vector<std::uint8_t>*> packets;
      for (const auto& pkt : run.packets) {
        packets.push_back(pkt.bytes.get());
      }
      r.codec_ok = wire_layer_metrics(packets, run.stats, r.layer);
    });
    std::vector<double> wave_ms;
    std::vector<double> round_ms;
    for (const PacedStep& step : run.steps) {
      (step.sweep ? round_ms : wave_ms).push_back(step.end_ms - step.start_ms);
    }
    Metrics& m = r.layer;
    m["mt.envelopes"] = static_cast<double>(run.envelopes);
    m["mt.envelopes_per_op"] =
        static_cast<double>(run.envelopes) / static_cast<double>(r.ops);
    m["mt.packets"] = static_cast<double>(run.stats.packets().sent);
    m["mt.ctrl_bytes"] = static_cast<double>(r.ctrl_bytes);
    m["mt.ops_skipped"] = static_cast<double>(r.skipped);
    m["mt.wave_drain_ms_p50"] = percentile(wave_ms, 50);
    m["mt.wave_drain_ms_p99"] = percentile(wave_ms, 99);
    m["mt.sweep_round_ms_p50"] = percentile(round_ms, 50);
  }
  return r;
}

// ----------------------------------------------------------------- main --

struct Workload {
  const char* name;
  bool simulator;
  std::function<PassResult(std::uint64_t, Meter&, LayerAccum*)> pass;
};

const ChurnShape kChurn{.sites = 128,
                        .window = 512,
                        .turnover = 1024,
                        .sweep_every = 128,
                        .sweep_budget = 512,
                        .faults = 0.03,
                        .migrate_p = 0.02};
const ChurnShape kBigHeap{.sites = 256,
                          .window = 1536,
                          .turnover = 256,
                          .sweep_every = 128,
                          .sweep_budget = 2048,
                          .faults = 0,
                          .migrate_p = 0};

std::vector<Workload> workloads() {
  return {
      {"gen_cyclic", true, run_gen_cyclic},
      {"churn", true,
       [](std::uint64_t seed, Meter& m, LayerAccum* a) {
         return run_churn(kChurn, seed, m, a);
       }},
      {"big_heap", true,
       [](std::uint64_t seed, Meter& m, LayerAccum* a) {
         return run_churn(kBigHeap, seed, m, a);
       }},
      {"threaded", false, run_threaded},
  };
}

/// Runs one pass; a traced pass also fills its per-layer metrics.
PassResult run_pass(const Workload& wl, std::uint64_t seed, bool traced,
                    bool store_spans, Tracer** kept) {
  std::unique_ptr<Tracer> tracer;
  LayerAccum acc;
  if (traced) {
    tracer = std::make_unique<Tracer>(kSpanCap, store_spans);
  }
  reset_peak_rss();
  const double reference_before = reference_loop_ms();
  Meter meter(tracer.get());
  const std::int64_t t0 = now_ns();
  PassResult r;
  {
    Scope span(tracer.get(), Layer::kPass);
    r = wl.pass(seed, meter, traced ? &acc : nullptr);
  }
  const double wall = ns_to_s(now_ns() - t0);
  r.peak_rss_mb = proc_status_mb("VmHWM:");
  r.reference_ms = (reference_before + reference_loop_ms()) / 2;
  if (traced) {
    double covered = 0;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      if (static_cast<Layer>(l) != Layer::kPass) {
        covered += ns_to_s(tracer->totals(static_cast<Layer>(l)).self_ns);
      }
    }
    r.layer["bench.driver_s"] = ns_to_s(tracer->totals(Layer::kPass).self_ns);
    r.layer["trace.layer_coverage_frac"] = wall > 0 ? covered / wall : 0;
    r.layer["check.oracle_s"] = meter.check_s();
    r.layer["gc.reclaimed"] = static_cast<double>(r.reclaimed);
    r.layer["gc.true_garbage"] = static_cast<double>(r.true_garbage);
    if (store_spans && kept != nullptr) {
      *kept = tracer.release();
    }
  }
  return r;
}

int usage() {
  std::cerr << "usage: bench_gc --workload NAME --seed N [--seconds S] "
               "[--trace FILE]\n  workloads:";
  for (const Workload& w : workloads()) {
    std::cerr << ' ' << w.name;
  }
  std::cerr << '\n';
  return 2;
}

void print(const char* name, double value, const char* unit) {
  std::printf("%s %.17g %s\n", name, value, unit);
}

}  // namespace
}  // namespace gcb

int main(int argc, char** argv) {
  using namespace gcb;
  std::string workload;
  std::string trace_file;
  std::uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage();
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace_file = value;
    } else {
      return usage();
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      return usage();
    }
  }
  const std::vector<Workload> all = workloads();
  const auto wl = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return workload == w.name;
  });
  if (wl == all.end()) {
    return usage();
  }
  const bool traced = !trace_file.empty();

  // A warm-up pass (checked, not timed: the first pass of a process runs
  // on cold caches and a cold allocator), then whole passes until the next
  // one would overrun the budget, and at least kMinPasses of them: every
  // figure is a median over passes. Traced runs alternate an untraced and
  // a traced pass.
  const std::int64_t start = now_ns();
  const PassResult warmup = run_pass(*wl, seed, false, false, nullptr);
  std::vector<PassResult> plain;
  std::vector<PassResult> with_trace;
  Tracer* kept = nullptr;
  double longest = ns_to_s(now_ns() - start);
  const std::size_t min_passes = traced ? kMinTracedPasses : kMinPasses;
  while (plain.size() < min_passes ||
         ns_to_s(now_ns() - start) + longest <= seconds) {
    const std::int64_t t0 = now_ns();
    plain.push_back(run_pass(*wl, seed, false, false, nullptr));
    if (traced) {
      with_trace.push_back(
          run_pass(*wl, seed, true, with_trace.empty(), &kept));
    }
    longest = std::max(longest, ns_to_s(now_ns() - t0));
  }
  std::unique_ptr<Tracer> spans(kept);

  std::vector<std::string> violations;
  bool deterministic = true;
  bool codec_ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t residual = 0;
  std::uint64_t skipped = 0;
  std::vector<const PassResult*> checked{&warmup};
  for (const auto* set : {&plain, &with_trace}) {
    for (const PassResult& r : *set) {
      checked.push_back(&r);
    }
  }
  for (const PassResult* r : checked) {
    violations.insert(violations.end(), r->violations.begin(),
                      r->violations.end());
    deterministic = deterministic && (!wl->simulator ||
                                      r->fingerprint == warmup.fingerprint);
    codec_ok = codec_ok && r->codec_ok;
    attempted += r->true_garbage;
    residual += r->residual;
    skipped += r->skipped;
  }
  if (!violations.empty()) {
    std::cerr << "FAILED: " << violations.size() << " violation(s)\n";
    for (std::size_t i = 0; i < std::min<std::size_t>(violations.size(), 10);
         ++i) {
      std::cerr << "  " << violations[i] << '\n';
    }
    return 3;
  }

  // Every pass-level figure is the median over the untraced passes (on the
  // simulator the counts behind the ratios are identical in every pass).
  // Rates and set-up times are scaled by the pass's host speed (nominal
  // over measured reference loop); latencies are counted in the pass's own
  // mean time per op, which the host's speed moves as much as the latency.
  std::vector<double> rate;
  std::vector<double> raw_rate;
  std::vector<double> setup;
  std::vector<double> raw_setup;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> bytes;
  std::vector<double> msgs;
  std::vector<double> rss;
  std::vector<double> reference;
  for (const PassResult& r : plain) {
    const double reclaimed =
        static_cast<double>(std::max<std::uint64_t>(r.reclaimed, 1));
    const double ops_per_ms = static_cast<double>(r.ops) / (r.run_s * 1e3);
    const double speed = kReferenceNominalMs / r.reference_ms;
    raw_rate.push_back(ops_per_ms * 1e3);
    rate.push_back(ops_per_ms * 1e3 / speed);
    setup.push_back(r.setup_s * speed);
    raw_setup.push_back(r.setup_s);
    p50.push_back(percentile(r.latency_ms, 50) * ops_per_ms);
    p99.push_back(percentile(r.latency_ms, 99) * ops_per_ms);
    bytes.push_back(static_cast<double>(r.ctrl_bytes) / reclaimed);
    msgs.push_back(static_cast<double>(r.ctrl_msgs) / reclaimed);
    rss.push_back(r.peak_rss_mb);
    reference.push_back(r.reference_ms);
  }
  Metrics e2e;
  e2e["ops_per_s"] = median(rate);
  e2e["setup_s"] = median(setup);
  e2e["reclaim_latency_p50_ops"] = median(p50);
  e2e["reclaim_latency_p99_ops"] = median(p99);
  e2e["ctrl_bytes_per_reclaimed"] = median(bytes);
  e2e["ctrl_msgs_per_reclaimed"] = median(msgs);
  e2e["peak_rss_mb"] = median(rss);

  std::printf("# workload %s seed %llu passes %zu traced %zu (+1 warm-up)\n",
              wl->name, static_cast<unsigned long long>(seed), plain.size(),
              with_trace.size());
  for (const MetricSpec& m : kEndToEnd) {
    print(m.name, e2e[m.name], m.unit);
  }
  // As measured, before scaling to the reference host speed.
  print("raw.ops_per_s", median(raw_rate), "ops/s");
  print("raw.setup_s", median(raw_setup), "s");
  if (traced) {
    Metrics layer;
    std::vector<double> traced_rate;
    for (const PassResult& r : with_trace) {
      traced_rate.push_back(static_cast<double>(r.ops) / r.run_s);
    }
    for (const MetricSpec& m : kPerLayer) {
      std::vector<double> v;
      for (const PassResult& r : with_trace) {
        auto it = r.layer.find(m.name);
        v.push_back(it == r.layer.end() ? 0 : it->second);
      }
      layer[m.name] = median(v);
    }
    layer["trace.overhead_frac"] = e2e["ops_per_s"] / median(traced_rate) - 1;
    layer["trace.spans_dropped"] = static_cast<double>(spans->dropped());
    layer["host.reference_ms"] = median(reference);
    for (const MetricSpec& m : kPerLayer) {
      print(m.name, layer[m.name], m.unit);
    }
    if (!spans->write_chrome(trace_file)) {
      std::cerr << "cannot write " << trace_file << '\n';
      return 1;
    }
  }
  const bool correct =
      deterministic && codec_ok && residual == 0 && skipped == 0;
  if (!deterministic) {
    std::cerr << "passes of one seed disagree on their counts\n";
  }
  if (!codec_ok) {
    std::cerr << "captured packets do not round-trip through the codec\n";
  }
  print("check.correct", correct ? 1 : 0, "bool");
  print("check.attempted", static_cast<double>(attempted), "count");
  print("check.failed", static_cast<double>(residual + skipped), "count");
  return 0;
}
