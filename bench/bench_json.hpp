// Minimal JSON writer shared by the machine-readable bench drivers: the
// schema is flat enough that a dependency would be overkill, but the
// output must stay parseable by standard tooling.
#pragma once

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>

#include "metrics/message_stats.hpp"
#include "obs/metrics.hpp"

// Build provenance baked in by CMake: which commit and build type
// produced a BENCH_*.json. CI uploads these files as artifacts, so
// without the stamp a downloaded number is unattributable.
#ifndef CGC_GIT_COMMIT
#define CGC_GIT_COMMIT "unknown"
#endif
#ifndef CGC_BUILD_TYPE
#define CGC_BUILD_TYPE "unknown"
#endif

namespace cgc::benchjson {

class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}

  void open(char c) {
    element();
    os_ << c << '\n';
    ++depth_;
    first_ = true;
  }
  void close(char c) {
    --depth_;
    os_ << '\n';
    pad();
    os_ << c;
    first_ = false;
  }
  void key(const std::string& k) {
    element();
    os_ << '"' << k << "\": ";
    after_key_ = true;
  }
  void value(std::uint64_t v) {
    element();
    os_ << v;
  }
  /// Non-finite doubles have no JSON spelling; they are written as null.
  void value(double v) {
    element();
    if (std::isfinite(v)) {
      os_ << v;
    } else {
      os_ << "null";
    }
  }
  void value(bool v) {
    element();
    os_ << (v ? "true" : "false");
  }
  void value(const std::string& v) {
    element();
    os_ << '"' << v << '"';
  }
  // Without this overload a string literal would convert to bool.
  void value(const char* v) { value(std::string(v)); }

 private:
  // Starts a value, an object member or an array element. A value right
  // after its key stays on the key's line; anything else is separated
  // from its predecessor and gets its own indented line.
  void element() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) {
      os_ << ",\n";
    }
    first_ = false;
    pad();
  }
  void pad() {
    for (int i = 0; i < depth_; ++i) {
      os_ << "  ";
    }
  }

  std::ostream& os_;
  int depth_ = 0;
  bool first_ = true;
  bool after_key_ = false;
};

/// Emits the provenance object every bench JSON carries ("meta": git
/// commit + CMake build type). Call once per file, right after the
/// "bench" name key.
inline void write_provenance(Json& json) {
  json.key("meta");
  json.open('{');
  json.key("commit");
  json.value(std::string(CGC_GIT_COMMIT));
  json.key("build_type");
  json.value(std::string(CGC_BUILD_TYPE));
  json.close('}');
}

inline void write_kind_counters(Json& json, const MessageStats& stats) {
  json.key("kinds");
  json.open('{');
  for (std::size_t i = 0; i < static_cast<std::size_t>(MessageKind::kCount);
       ++i) {
    const auto kind = static_cast<MessageKind>(i);
    const auto& c = stats.of(kind);
    if (c.sent == 0) {
      continue;
    }
    json.key(std::string(to_string(kind)));
    json.open('{');
    json.key("sent");
    json.value(c.sent);
    json.key("delivered");
    json.value(c.delivered);
    json.key("dropped");
    json.value(c.dropped);
    json.key("duplicated");
    json.value(c.duplicated);
    json.key("bytes_sent");
    json.value(c.bytes_sent);
    json.key("bytes_delivered");
    json.value(c.bytes_delivered);
    json.close('}');
  }
  json.close('}');
}

inline void write_packet_counters(Json& json, const MessageStats& stats) {
  const auto& p = stats.packets();
  json.key("packets");
  json.open('{');
  json.key("sent");
  json.value(p.sent);
  json.key("delivered");
  json.value(p.delivered);
  json.key("dropped");
  json.value(p.dropped);
  json.key("duplicated");
  json.value(p.duplicated);
  json.key("bytes_sent");
  json.value(p.bytes_sent);
  json.key("bytes_delivered");
  json.value(p.bytes_delivered);
  json.close('}');
}

/// Unreachable→reclaimed latency percentiles (sim ticks). Every BENCH
/// workload entry carries these fields even where the workload cannot
/// measure them (no ground-truth join available): an honest zero-sample
/// block keeps the schema uniform so CI can gate on field presence.
inline void write_latency_fields(Json& json, const obs::TickHistogram& h) {
  const obs::Summary s = h.summary();
  json.key("latency_samples");
  json.value(s.count);
  json.key("latency_p50_ticks");
  json.value(s.p50);
  json.key("latency_p99_ticks");
  json.value(s.p99);
  json.key("latency_max_ticks");
  json.value(s.max);
}

/// Per-sweep detector pause percentiles (wall microseconds). Zero-sample
/// blocks mark engines with no sweep (acyclic baselines) — see above.
inline void write_sweep_pause_fields(Json& json, const obs::TickHistogram& h) {
  const obs::Summary s = h.summary();
  json.key("sweeps");
  json.value(s.count);
  json.key("sweep_pause_p50");
  json.value(s.p50);
  json.key("sweep_pause_p99");
  json.value(s.p99);
  json.key("sweep_pause_max");
  json.value(s.max);
}

}  // namespace cgc::benchjson
