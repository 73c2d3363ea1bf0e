// The two-dimensional log DV_i each global root maintains (§3.3 item 1,
// §3.4).
//
// `row(q)` is the best locally-held approximation of the dependency
// vector of the latest known log-keeping event of process `q`. Row `self()`
// describes this global root's own latest event. Rows for third parties
// (processes this root merely forwarded references to) hold entries logged
// *on behalf of* those processes, to be delivered later bundled with an
// edge-destruction message (§3.4).
//
// Space bound: one row per acquaintance ever heard of — NOT one row per
// past event. This is the paper's answer to the unbounded history of
// Fowler & Zwaenepoel's reconstruction (§3.3, §5).
//
// Representation: a RowTable — all rows share one pair of SoA entry
// columns (ids + packed timestamps) sliced by per-row spans, optionally
// backed by the owning engine's Pool. Rows are reached through RowRef /
// RowView proxies that mirror DependencyVector's surface. Iteration
// (`rows()`) walks the index in increasing ProcessId order — exactly the
// order the old `std::map` produced, which the delta-encoded wire format
// depends on. Erased rows' column slots are reclaimed by the table's
// compaction, so the log's footprint tracks its live contents (the old
// slot free-list pinned every row's high-water block forever).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "vclock/row_table.hpp"

namespace cgc {

class DvLog {
 public:
  using RowRef = RowTable::RowRef;
  using RowView = RowTable::RowView;
  using RowsView = RowTable::RowsView;

  DvLog() = default;
  explicit DvLog(ProcessId self, Pool* pool = nullptr)
      : self_(self), rows_(pool) {}

  [[nodiscard]] ProcessId self() const { return self_; }

  /// Mutable access to a row, creating (interning) it if absent. The
  /// returned proxy stays valid across later interning calls (slots are
  /// stable); only erasing the same row invalidates it.
  [[nodiscard]] RowRef row(ProcessId q) { return rows_.row(q); }

  /// Read-only row access; absent rows read as the empty vector.
  [[nodiscard]] RowView row(ProcessId q) const { return rows_.row(q); }

  [[nodiscard]] RowRef self_row() { return rows_.row(self_); }
  [[nodiscard]] RowView self_row() const { return rows_.row(self_); }

  /// This root's own latest event index.
  [[nodiscard]] Timestamp own_timestamp() const {
    return self_row().get(self_);
  }

  /// Records a fresh local log-keeping event: bumps own index in own row.
  Timestamp new_local_event() { return self_row().increment(self_); }

  [[nodiscard]] bool has_row(ProcessId q) const { return rows_.contains(q); }

  /// Removes a row and actually releases its storage: the span dies and
  /// the shared columns compact once enough slots are dead.
  void erase_row(ProcessId q) { rows_.erase(q); }

  /// Ordered view over (ProcessId, row) pairs, increasing ProcessId.
  [[nodiscard]] RowsView rows() const { return rows_.rows(); }

  /// Number of rows held (one per acquaintance ever heard of).
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Total number of timestamp entries across all rows (space metric, T6).
  [[nodiscard]] std::size_t entry_count() const { return rows_.entry_count(); }

  // -- footprint introspection (tests assert erase really shrinks) ---------

  [[nodiscard]] std::size_t column_slots() const {
    return rows_.column_slots();
  }
  [[nodiscard]] std::size_t dead_slots() const { return rows_.dead_slots(); }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return rows_.footprint_bytes();
  }
  [[nodiscard]] std::size_t column_bytes() const {
    return rows_.column_bytes();
  }
  /// Bytes the rows' stamps occupy (0 once released).
  [[nodiscard]] std::size_t stamp_bytes() const {
    return rows_.stamp_bytes();
  }
  void compact() { rows_.compact(); }
  /// Compact + trim all bookkeeping to size (tombstone tight-pack).
  void shrink_to_fit() { rows_.shrink_to_fit(); }
  /// Drops every row's stamp (see RowTable::release_stamps).
  void release_stamps() { rows_.release_stamps(); }

  /// Fixed-universe rendering matching the paper's Fig. 8 boxes.
  [[nodiscard]] std::string str(const std::vector<ProcessId>& universe) const;

 private:
  ProcessId self_;
  RowTable rows_;
};

}  // namespace cgc
