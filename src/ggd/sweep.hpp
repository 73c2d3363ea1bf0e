// Budget-bounded sweep scheduling: the pieces SiteCore's sweep state
// machine runs on, under either host (the simulator's GgdEngine adds its
// migration phases through a host hook; the threaded SiteNode adds none).
//
// The paper assumes periodic maintenance sweeps; a literal reading runs
// every re-emission, stub check and stale-gate scan to completion in one
// tick — a stop-the-world pause that grows with the live population. The
// scheduler model here follows the timelimit/generation shape of
// mhconfig's collector (SNIPPETS.md 1–2): each call performs at most
// `budget` accounted units of work (one unit per table entry visited —
// re-emission scans, stub TTL checks, frontier-maintenance row scans) and
// resumes exactly where it left off, so a sweep *round* becomes a chain
// of bounded *slices*.
//
// Two invariants every user of these types preserves:
//
//   * Unbounded budget ⇒ one slice == one whole round, executed in the
//     exact order of the historical monolithic sweep. The wire-trace
//     goldens pin this byte-for-byte.
//   * Resume cursors are *keys*, not iterators: the tables mutate between
//     slices (entries erased by this round, processes added by the
//     mutator), and a key survives any reallocation. Entries inserted
//     behind the cursor are picked up next round — same rule the
//     monolithic sweep already applied to entries inserted behind its
//     live iterator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cgc::sweep {

/// Budget value meaning "no limit": one slice runs the round to the end.
inline constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

/// Sweep rounds between capacity-trim passes over the live population
/// (GgdProcess::trim_storage). Wire-passive at any
/// value; the throttle only balances memcpy cost against capacity-slack
/// accumulation.
inline constexpr std::uint64_t kTrimEveryRounds = 4;

/// Work-unit accountant for one slice. `take()` answers whether the next
/// unit of work may run; once it refuses, the slice is over.
class Budget {
 public:
  explicit Budget(std::uint64_t units)
      : left_(units), unbounded_(units == kUnbounded) {}

  /// Consumes one unit. False means the slice budget is spent — the
  /// caller records its cursor and returns without touching more state.
  bool take() {
    if (unbounded_) {
      return true;
    }
    if (left_ == 0) {
      return false;
    }
    --left_;
    return true;
  }

  [[nodiscard]] bool unbounded() const { return unbounded_; }

 private:
  std::uint64_t left_;
  bool unbounded_;
};

/// Generation tags over the dense process index: recently-touched rows
/// are scanned every round, cold rows every 2^gen-th round (capped).
/// Only consulted under a *finite* budget — an unbounded sweep scans
/// everything, which is what keeps it byte-identical to the historical
/// monolith.
///
/// The aging rule is scan-driven: a scan that produced no output and no
/// removal ("uneventful") promotes the row one generation; any mutator or
/// message activity re-marks it hot. Periods are capped at 8 rounds, so
/// even a fully cold row is revisited within a bounded number of rounds —
/// the healed-sweep fixpoint loops rely on that bound for completeness.
class GenerationTable {
 public:
  static constexpr std::uint8_t kMaxGen = 3;  // periods 1, 2, 4, 8
  static constexpr std::uint64_t kMaxPeriod = std::uint64_t{1} << kMaxGen;

  /// Registers the next dense index. New rows start hot: a newborn's
  /// first decision must not wait out a cold period.
  void add() {
    gen_.push_back(0);
    touched_.push_back(1);
    last_scan_round_.push_back(0);
  }

  void touch(std::uint32_t idx) { touched_[idx] = 1; }

  [[nodiscard]] bool eligible(std::uint32_t idx, std::uint64_t round) const {
    return touched_[idx] != 0 ||
           round - last_scan_round_[idx] >= period(gen_[idx]);
  }

  /// Records a completed scan of `idx` in `round`. Uneventful scans age
  /// the row toward longer periods; eventful ones reset it to hot.
  void note_scanned(std::uint32_t idx, std::uint64_t round, bool eventful) {
    last_scan_round_[idx] = round;
    touched_[idx] = 0;
    gen_[idx] = eventful ? 0
                         : static_cast<std::uint8_t>(
                               std::min<int>(gen_[idx] + 1, kMaxGen));
  }

  [[nodiscard]] std::uint8_t generation(std::uint32_t idx) const {
    return gen_[idx];
  }

  /// Rounds until `idx` becomes eligible again (0 = next round scans it).
  [[nodiscard]] std::uint64_t rounds_until_eligible(
      std::uint32_t idx, std::uint64_t round) const {
    if (touched_[idx] != 0) {
      return 0;
    }
    const std::uint64_t due = last_scan_round_[idx] + period(gen_[idx]);
    return due > round ? due - round : 0;
  }

  [[nodiscard]] std::size_t size() const { return gen_.size(); }

  static std::uint64_t period(std::uint8_t g) {
    return std::uint64_t{1} << std::min(g, kMaxGen);
  }

 private:
  std::vector<std::uint8_t> gen_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::uint64_t> last_scan_round_;
};

/// Where a process stands in the sweep queue — what `cgc-explain` reports
/// for an `awaiting_sweep` verdict instead of "wait for the next tick".
struct Backlog {
  std::uint8_t generation = 0;
  std::uint64_t rounds_until_eligible = 0;
  /// Slices until the scan reaches the process, under the budget the
  /// engine last swept with (1 slice per round when unbounded).
  std::uint64_t estimated_slices = 1;
};

/// Estimates the slice backlog for a row `position` entries into a
/// `population`-row scan, `rounds_out` rounds from eligibility, under
/// `budget` units per slice. Conservative integer arithmetic; exact when
/// nothing changes between now and the scan.
inline std::uint64_t estimate_slices(std::uint64_t population,
                                     std::uint64_t position,
                                     std::uint64_t rounds_out,
                                     std::uint64_t budget) {
  if (budget == kUnbounded || budget == 0) {
    return rounds_out + 1;
  }
  const std::uint64_t per_round = (population + budget - 1) / budget;
  return rounds_out * std::max<std::uint64_t>(per_round, 1) +
         position / budget + 1;
}

}  // namespace cgc::sweep
