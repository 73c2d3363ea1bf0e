#include "logkeeping/lazy_logkeeping.hpp"

namespace cgc {

void LazyLogKeeping::on_send_own_ref(GgdProcess& i, ProcessId j) const {
  i.increment_log(i.id(), j);
  i.new_local_event();
}

void LazyLogKeeping::on_send_third_party_ref(GgdProcess& i, ProcessId k,
                                             ProcessId j) const {
  i.increment_log(k, j);
  if (mode_ == LogKeepingMode::kRobust) {
    // Forwarding is a log-keeping event of the forwarder: bumping its own
    // counter orders the forward before any later state of the forwarder,
    // so a row of the forwarder that proves it unreachable is necessarily
    // newer than its last forward — the ordering the decision walk's
    // soundness argument rests on.
    i.new_local_event();
  }
}

void LazyLogKeeping::on_receive_ref(GgdProcess& j, ProcessId k) const {
  if (k == j.id()) {
    // A reference to itself coming home creates no inter-site edge.
    return;
  }
  if (mode_ == LogKeepingMode::kRobust) {
    // Acquiring an inter-site reference is a log-keeping event of the
    // acquirer: bump its own counter and record the new edge with that
    // fresh index, so any later destruction marker from j necessarily
    // carries a strictly larger index than every edge it outlived.
    const Timestamp own = j.new_local_event();
    j.merge_log_entry(k, j.id(), own);
  } else {
    // Paper-exact rule (§3.4): DV_j[k][j]++ — the acquirer locally assigns
    // the next index of its own timeline for this edge, and mirrors the
    // assignment into its own counter so a later edge-destruction message
    // from j carries an index that supersedes every index j ever assigned
    // on its own behalf (this is what makes the root's destruction message
    // in Fig. 8 carry E1 rather than E0).
    const Timestamp assigned = j.increment_log(k, j.id());
    j.merge_log_entry(j.id(), j.id(), assigned);
  }
  j.add_acquaintance(k);
}

GgdMessage LazyLogKeeping::on_drop_ref(GgdProcess& j, ProcessId k) const {
  GgdMessage msg = j.make_destruction_message(k);
  if (bundle_entries_ != nullptr) {
    // The §3.4 destruction bundle's payload size: every deferred on-behalf
    // entry it delivers atomically rides in `v`.
    bundle_entries_->record(msg.v.size());
  }
  j.remove_acquaintance(k);
  j.erase_log_row(k);
  j.decertify_row(k);
  return msg;
}

}  // namespace cgc
