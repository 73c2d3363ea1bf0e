// Span recorder for bench_gc's traced runs.
//
// A span is one call into a layer, opened and closed around that call by
// the benchmark itself: a mutator call, a simulator drain, one delivered
// wire message, one sweep slice, one threaded wave. Spans nest by time on
// a single stack, so a span's parent is whatever was open when it began
// and its self time is its duration minus its children's durations.
//
// Every span gets an id when it opens and records the id of the span
// that was open around it (0 for none).
//
// Per-layer totals (count, total, self) are kept for every span, whether
// or not it is stored; storing is capped, and spans past the cap are only
// counted as dropped. The stored spans are written out once, at the end,
// as a Chrome trace (chrome://tracing, ui.perfetto.dev).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace gcb {

enum class Layer : std::uint8_t {
  kPass,  // one whole pass: the bench driver's own work is its self time
  kSetup,
  kMutator,
  kDrain,
  kDeliverRef,
  kDeliverVector,
  kDeliverDestruction,
  kDeliverInquiry,
  kDeliverMigration,
  kSweep,
  kCheck,
  kWave,
  kSweepRound,
  kJoin,
  kCount,
};

inline const char* layer_name(Layer l) {
  constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
      kNames{"pass",          "setup",          "ggd.mutator",
             "sim.drain",     "ggd.deliver.ref", "ggd.deliver.vector",
             "ggd.deliver.destruction",           "ggd.deliver.inquiry",
             "ggd.deliver.migration",             "ggd.sweep",
             "check",         "mt.wave",         "mt.sweep_round",
             "mt.join"};
  return kNames[static_cast<std::size_t>(l)];
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// `store` = false keeps the per-layer totals but stores (and drops) no
  /// span: the traced passes after the first, whose spans nobody writes.
  Tracer(std::size_t span_cap, bool store)
      : cap_(span_cap), store_(store), origin_(now_ns()) {}

  void begin(Layer layer) {
    open_.push_back(Open{layer, ++next_id_, now_ns(), 0});
  }

  void end() {
    const std::int64_t t = now_ns();
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t dur = t - o.start;
    Totals& tot = totals_[static_cast<std::size_t>(o.layer)];
    ++tot.count;
    tot.total_ns += dur;
    tot.self_ns += dur - o.child_ns;
    if (!open_.empty()) {
      open_.back().child_ns += dur;
    }
    if (!store_) {
      return;
    }
    if (spans_.size() < cap_) {
      spans_.push_back(Span{o.layer, o.id, open_.empty() ? 0 : open_.back().id,
                            o.start - origin_, dur});
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] const Totals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t stored() const { return spans_.size(); }

  /// Writes the stored spans as Chrome trace "complete" events (stored in
  /// end order; viewers nest them by time). `id` and `parent` are in args.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}\n",
                   i == 0 ? "" : ",", layer_name(s.layer),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    }
    std::fprintf(f, "],\"otherData\":{\"spans_dropped\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    Layer layer;
    std::uint64_t id;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Span {
    Layer layer;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };

  std::size_t cap_;
  bool store_;
  std::int64_t origin_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

/// Opens a span for the enclosing scope; a no-op without a tracer, which
/// is how the untraced passes run the same code.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->begin(layer);
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->end();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace gcb
