// Lazy log-keeping (§3.4): the mutator-side updates to the DV logs.
//
// The defining property of the lazy mechanism is that *no additional
// control messages* are sent when references cross site boundaries — not
// even for third-party exchanges. Each party to the actual mutator message
// updates its own log locally; entries recorded *on behalf of* an absent
// third party are delivered later, bundled atomically with the
// edge-destruction control message that the local collector emits when the
// edge dies. This removes both the control-message overhead and the
// create/destroy race of eager schemes (§2.3).
//
// Two variants are provided:
//   * kPaperExact — the literal update rules of §3.4. Reproduces the
//     worked example (Figs. 5, 8) index-for-index.
//   * kRobust (default) — additionally bumps the acquirer's own event
//     counter whenever it gains an inter-site reference, so that every
//     change to the global root graph is a fresh event of its source
//     process. This strengthens the masking invariant (a destruction
//     marker can never conceal a causally later re-creation) at zero
//     message cost.
#pragma once

#include "ggd/process.hpp"
#include "obs/metrics.hpp"

namespace cgc {

enum class LogKeepingMode {
  kPaperExact,
  kRobust,
};

class LazyLogKeeping {
 public:
  explicit LazyLogKeeping(LogKeepingMode mode = LogKeepingMode::kRobust)
      : mode_(mode) {}

  [[nodiscard]] LogKeepingMode mode() const { return mode_; }

  /// Rule 1 (§3.4): process `i` sends a copy of *its own* reference to `j`
  /// (creating edge j → i in the global root graph). Runs at i's site when
  /// the mutator message is sent:  DV_i[i][j]++ and DV_i[i][i]++ — a new
  /// log-keeping event at i whose direct remote predecessor slot for `j`
  /// is advanced.
  void on_send_own_ref(GgdProcess& i, ProcessId j) const;

  /// Rule 2 (§3.4): process `i` sends a reference *denoting third party
  /// `k`* to `j` (creating edge j → k). Runs at i's site:
  /// DV_i[k][j]++ — logged on behalf of `k`, and NOT sent to `k` now.
  void on_send_third_party_ref(GgdProcess& i, ProcessId k, ProcessId j) const;

  /// Rule 3 (§3.4): process `j` receives a reference denoting `k` (from
  /// whomever). Runs at j's site on delivery: DV_j[k][j]++ plus, in robust
  /// mode, DV_j[j][j]++ — and `k` joins j's acquaintances.
  void on_receive_ref(GgdProcess& j, ProcessId k) const;

  /// The local collector at j's site destroyed the last local reference to
  /// `k` (the proxy for `k` was collected): emit the edge-destruction
  /// control message carrying DV_j[k] with slot j destruction-marked,
  /// atomically delivering any deferred third-party entries (§3.4).
  /// Removes k from j's acquaintances and drops the on-behalf row.
  [[nodiscard]] GgdMessage on_drop_ref(GgdProcess& j, ProcessId k) const;

  /// Attaches a metrics registry (nullptr detaches). The only instrument
  /// kept is the destruction-bundle payload histogram: entry count of each
  /// bundle on_drop_ref emits — the lazily deferred on-behalf entries the
  /// §3.4 bundle delivers atomically. Passive; no wire effect.
  void attach_obs(obs::Registry* registry) {
    bundle_entries_ =
        registry == nullptr ? nullptr
                            : &registry->histogram("logkeeping.bundle_entries");
  }

 private:
  LogKeepingMode mode_;
  obs::TickHistogram* bundle_entries_ = nullptr;
};

}  // namespace cgc
