// Sparse dependency vector over log-keeping processes (§3.1–§3.3).
//
// A dependency vector maps each process of the log-keeping computation to a
// Timestamp. The DDV of an event records the event's own index and the
// indexes of its direct predecessors; the full vector time additionally
// closes the record under causal transitivity (§3.2). Both are represented
// by this one type — the difference is purely in how complete the contents
// are.
//
// The vector is sparse: processes never heard from are simply absent, which
// both matches the unbounded, dynamically growing process universe of a
// distributed object system and keeps the space overhead proportional to
// the number of acquaintances rather than the number of objects.
//
// Representation: a key-sorted `FlatMap` — entries are contiguous, lookups
// scan linearly below 8 entries (the common acquaintance count), and the
// component-wise merge of Fig. 6 is a single two-pointer sweep over both
// vectors instead of one ordered-map lookup per entry. Iteration order
// (strictly increasing ProcessId) is unchanged from the previous
// `std::map`, so the delta-encoded wire format is byte-identical.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "vclock/timestamp.hpp"

namespace cgc {

class DependencyVector {
 public:
  DependencyVector() = default;

  /// Entry lookup; absent entries read as Timestamp() == 0.
  [[nodiscard]] Timestamp get(ProcessId p) const {
    auto it = entries_.find(p);
    return it == entries_.end() ? Timestamp{} : it->second;
  }

  /// Overwrites the entry for `p` (no merge semantics).
  void set(ProcessId p, Timestamp ts) {
    if (ts == Timestamp{}) {
      entries_.erase(p);
    } else {
      entries_[p] = ts;
    }
  }

  /// Merges one entry using the supersedes-or-keep rule.
  void merge_entry(ProcessId p, Timestamp ts) {
    set(p, Timestamp::merge(get(p), ts));
  }

  /// Component-wise merge of a whole vector (the `max` loops of Fig. 6):
  /// one linear two-pointer sweep. Entries never hold Timestamp{} (set()
  /// erases them), so the merged result needs no zero filtering.
  void merge(const DependencyVector& other) {
    if (this == &other) {
      return;
    }
    entries_.merge_with(other.entries_, [](Timestamp a, Timestamp b) {
      return Timestamp::merge(a, b);
    });
  }

  /// Bumps the creation-event index for `p` by one and returns the new
  /// timestamp. A previous destruction marker is superseded: a new creation
  /// event starts a new live edge.
  Timestamp increment(ProcessId p) {
    const Timestamp next = Timestamp::creation(get(p).index() + 1);
    entries_[p] = next;
    return next;
  }

  [[nodiscard]] bool operator==(const DependencyVector&) const = default;

  /// Schwarz & Mattern partial order (§3.2), with Δ entries (0 or
  /// destruction markers) compared as 0.
  [[nodiscard]] bool leq(const DependencyVector& other) const;
  [[nodiscard]] bool less(const DependencyVector& other) const {
    return leq(other) && !effective_equal(other);
  }

  /// True iff the two vectors agree entry-wise on effective (live) indexes.
  [[nodiscard]] bool effective_equal(const DependencyVector& other) const;

  /// All processes with a non-Δ (live) entry.
  [[nodiscard]] std::vector<ProcessId> live_processes() const;

  /// All processes present in the vector, Δ or not.
  [[nodiscard]] std::vector<ProcessId> known_processes() const;

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Pre-sizes for `n` entries: builders that know the count (decoders,
  /// row materialization) fill with one allocation instead of ~log2(n).
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Deterministically ordered iteration for printing and hashing.
  [[nodiscard]] const FlatMap<ProcessId, Timestamp>& entries() const {
    return entries_;
  }

  /// Renders as "(a, b, c, ...)" over the given process universe — the
  /// fixed-width notation the paper's figures use.
  [[nodiscard]] std::string str(const std::vector<ProcessId>& universe) const;
  /// Renders sparsely as "{p:ts, ...}".
  [[nodiscard]] std::string str() const;

 private:
  FlatMap<ProcessId, Timestamp> entries_;
};

std::ostream& operator<<(std::ostream& os, const DependencyVector& dv);

}  // namespace cgc
