// Per-site structured event journal.
//
// A bounded ring of typed records capturing WHAT the detector decided and
// WHEN — sweep spans, walk verdicts, destruction emission/confirmation,
// migration freeze/deliver/bounce, row relays, reclamations. Two
// consumers: the Chrome-trace exporter (timeline view of a run) and the
// `cgc-explain` causal walker (why is X not yet collected at tick T).
//
// The journal is strictly passive: engines write to it only when one is
// attached, and nothing in any protocol path ever reads it back. The
// golden wire-trace test re-runs its pinned workloads with a journal
// attached and asserts the hashes are byte-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace cgc::obs {

enum class EventKind : std::uint8_t {
  kSweepStart,          // detail = pending destruction count at entry
  kSweepEnd,            // detail = wall-clock microseconds for the sweep
  kWalkVerdict,         // a = subject, b = first missing dep, detail packed
  kInquiry,             // a = inquirer, b = inquiry target
  kDestructionEmit,     // a = dropper, b = dropped target
  kDestructionDeliver,  // a = dropper, b = dropped target (confirmed)
  kRowRelay,            // a = forwarder, detail = relayed row count
  kMigrateFreeze,       // a = migrant, site = src, detail = dst site
  kMigrateDeliver,      // a = migrant, site = dst, detail = src site
  kMigrateBounce,       // a = intended target at a stale/absent site
  kReclaim,             // a = process removed for good
  kCondemned,           // a = process removed by a condemned set, b = the
                        // walker whose confirmed verdict condemned it
};

[[nodiscard]] inline const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kSweepStart:
      return "sweep_start";
    case EventKind::kSweepEnd:
      return "sweep_end";
    case EventKind::kWalkVerdict:
      return "walk_verdict";
    case EventKind::kInquiry:
      return "inquiry";
    case EventKind::kDestructionEmit:
      return "destruction_emit";
    case EventKind::kDestructionDeliver:
      return "destruction_deliver";
    case EventKind::kRowRelay:
      return "row_relay";
    case EventKind::kMigrateFreeze:
      return "migrate_freeze";
    case EventKind::kMigrateDeliver:
      return "migrate_deliver";
    case EventKind::kMigrateBounce:
      return "migrate_bounce";
    case EventKind::kReclaim:
      return "reclaim";
    case EventKind::kCondemned:
      return "condemned";
  }
  return "?";
}

/// Walk outcome mirrored from GgdProcess::WalkResult. Duplicated on
/// purpose: the journal sits below the detectors and must not include
/// ggd headers (logkeeping and future engines journal too).
enum class WalkVerdict : std::uint8_t {
  kReachable = 0,
  kUnreachable = 1,
  kBlocked = 2,
};

[[nodiscard]] inline const char* to_string(WalkVerdict v) {
  switch (v) {
    case WalkVerdict::kReachable:
      return "reachable";
    case WalkVerdict::kUnreachable:
      return "unreachable";
    case WalkVerdict::kBlocked:
      return "blocked";
  }
  return "?";
}

/// kWalkVerdict packs verdict + walk shape into `detail`:
/// bits 0-1 verdict, bits 2-32 consulted-row count, bits 33+ missing-row
/// count. 31 bits per count is far beyond any walk the engines can do.
[[nodiscard]] inline std::uint64_t pack_walk(WalkVerdict v,
                                             std::uint32_t consulted,
                                             std::uint32_t missing) {
  return static_cast<std::uint64_t>(v) |
         (static_cast<std::uint64_t>(consulted & 0x7fffffffU) << 2) |
         (static_cast<std::uint64_t>(missing & 0x7fffffffU) << 33);
}

[[nodiscard]] inline WalkVerdict walk_result(std::uint64_t detail) {
  return static_cast<WalkVerdict>(detail & 0x3);
}

[[nodiscard]] inline std::uint32_t walk_consulted(std::uint64_t detail) {
  return static_cast<std::uint32_t>((detail >> 2) & 0x7fffffffU);
}

[[nodiscard]] inline std::uint32_t walk_missing(std::uint64_t detail) {
  return static_cast<std::uint32_t>((detail >> 33) & 0x7fffffffU);
}

struct Record {
  SimTime at = 0;
  SiteId site;  // invalid ⇒ engine-global event
  EventKind kind = EventKind::kSweepStart;
  ProcessId a;
  ProcessId b;
  std::uint64_t detail = 0;
};

/// Fixed-capacity ring buffer of Records. Grows (one push_back each) up
/// to capacity, then overwrites the oldest — a long run keeps its recent
/// history, which is the part the explainer walks backwards through.
class Journal {
 public:
  explicit Journal(std::size_t capacity = std::size_t{1} << 14)
      : cap_(capacity == 0 ? 1 : capacity) {
    buf_.reserve(std::min<std::size_t>(cap_, 1024));
  }

  void record(SimTime at, SiteId site, EventKind kind, ProcessId a = {},
              ProcessId b = {}, std::uint64_t detail = 0) {
    ++recorded_;
    if (buf_.size() < cap_) {
      buf_.push_back(Record{at, site, kind, a, b, detail});
      return;
    }
    buf_[head_] = Record{at, site, kind, a, b, detail};
    head_ = (head_ + 1) % cap_;
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// Total records ever written (≥ size()).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Records lost to ring overwrite.
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ - buf_.size();
  }

  /// i-th surviving record, 0 = oldest.
  [[nodiscard]] const Record& at(std::size_t i) const {
    return buf_.size() < cap_ ? buf_[i] : buf_[(head_ + i) % cap_];
  }

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      f(at(i));
    }
  }

  /// Visits newest→oldest; stop by returning false. This is the
  /// explainer's primitive: the most recent evidence about a process
  /// decides its current state.
  template <typename F>
  void scan_backwards(F&& f) const {
    for (std::size_t i = buf_.size(); i > 0; --i) {
      if (!f(at(i - 1))) {
        return;
      }
    }
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    recorded_ = 0;
  }

 private:
  std::size_t cap_;
  std::size_t head_ = 0;  // oldest slot once the ring is full
  std::uint64_t recorded_ = 0;
  std::vector<Record> buf_;
};

/// One-line human rendering, used for explainer evidence lists.
[[nodiscard]] inline std::string format_record(const Record& r) {
  std::string s = "t=" + std::to_string(r.at);
  if (r.site.valid()) {
    s += " site=" + std::to_string(r.site.value());
  }
  s += " ";
  s += to_string(r.kind);
  switch (r.kind) {
    case EventKind::kSweepStart:
      s += " pending_destructions=" + std::to_string(r.detail);
      break;
    case EventKind::kSweepEnd:
      s += " wall_us=" + std::to_string(r.detail);
      break;
    case EventKind::kWalkVerdict:
      s += " proc=" + r.a.str();
      s += " verdict=";
      s += to_string(walk_result(r.detail));
      s += " consulted=" + std::to_string(walk_consulted(r.detail));
      if (walk_missing(r.detail) > 0) {
        s += " missing=" + std::to_string(walk_missing(r.detail));
        if (r.b.valid()) {
          s += " first_missing=" + r.b.str();
        }
      }
      break;
    case EventKind::kInquiry:
      s += " from=" + r.a.str() + " about=" + r.b.str();
      break;
    case EventKind::kDestructionEmit:
    case EventKind::kDestructionDeliver:
      s += " dropper=" + r.a.str() + " target=" + r.b.str();
      break;
    case EventKind::kRowRelay:
      s += " forwarder=" + r.a.str() + " rows=" + std::to_string(r.detail);
      break;
    case EventKind::kMigrateFreeze:
      s += " proc=" + r.a.str() + " dst_site=" + std::to_string(r.detail);
      break;
    case EventKind::kMigrateDeliver:
      s += " proc=" + r.a.str() + " src_site=" + std::to_string(r.detail);
      break;
    case EventKind::kMigrateBounce:
      s += " proc=" + r.a.str();
      break;
    case EventKind::kReclaim:
      s += " proc=" + r.a.str();
      break;
    case EventKind::kCondemned:
      s += " proc=" + r.a.str() + " walker=" + r.b.str();
      break;
  }
  return s;
}

}  // namespace cgc::obs
