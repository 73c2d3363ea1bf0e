// The reference ComputeV closure the GgdProcess tests compare against.
#pragma once

#include <cstddef>
#include <vector>

#include "common/flat_map.hpp"
#include "ggd/process.hpp"

namespace cgc {

/// What the reference closure saw across a batch of states: proof that a
/// test's random states exercise every case the one-pass closure reasons
/// about, not just the easy ones.
struct ClosureCoverage {
  std::size_t live_ties = 0;       // history index == a live entry of v
  std::size_t marker_ties = 0;     // history index == a seeded marker
  std::size_t dead_in_history = 0; // live history entry of a dead process
  std::size_t repushes = 0;        // subjects pushed again after expansion
};

/// The closure as it stood before the one-pass rewrite, kept verbatim as
/// the oracle: it re-pushes a subject on every equal-index tie with a live
/// entry and tests death before comparing. It always recomputes from the
/// process's current self row, histories and death knowledge.
inline DependencyVector reference_compute_v(const GgdProcess& proc,
                                            ClosureCoverage& cov) {
  const ProcessId self = proc.id();
  DependencyVector v;
  for (const auto& [q, ts] : proc.log().self_row().entries()) {
    if (q == self || !proc.dead().contains(q)) {
      v.set(q, ts);
    }
  }
  std::vector<ProcessId> stack;
  FlatSet<ProcessId> expanded{self};
  for (const auto& [q, ts] : v.entries()) {
    if (q != self && !ts.is_delta()) {
      stack.push_back(q);
    }
  }
  while (!stack.empty()) {
    const ProcessId p = stack.back();
    stack.pop_back();
    if (!expanded.insert(p).second) {
      continue;
    }
    const RowTable::RowView hist = proc.history().row(p);
    if (!hist.exists()) {
      continue;
    }
    for (const auto& [q, alpha] : hist) {
      if (q != p && q != self && !alpha.is_delta() &&
          proc.dead().contains(q)) {
        ++cov.dead_in_history;
      }
      if (q == p || q == self || alpha.is_delta() || proc.dead().contains(q)) {
        continue;
      }
      const Timestamp cur = v.get(q);
      if (alpha.index() > cur.index()) {
        v.set(q, alpha);
        stack.push_back(q);
      } else if (alpha.index() == cur.index() && !cur.destroyed()) {
        ++cov.live_ties;
        cov.repushes += expanded.contains(q) ? 1 : 0;
        stack.push_back(q);
      } else if (alpha.index() == cur.index()) {
        ++cov.marker_ties;
      }
    }
  }
  return v;
}

inline DependencyVector reference_compute_v(const GgdProcess& proc) {
  ClosureCoverage unused;
  return reference_compute_v(proc, unused);
}

}  // namespace cgc
