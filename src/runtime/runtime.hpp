// DistributedRuntime: the full stack of the paper's system model —
// objects on sites, references crossing site boundaries inside messages,
// proxies, export tables, per-site local GC (localgc/), and GGD (ggd/)
// underneath.
//
// Granularity mapping: every *local root* object and every
// *exported* object (global root) is a GGD process; the edges of the
// global root graph are the summarised relations "global root g locally
// reaches proxy p", recomputed by each local collection (Bishop-style
// decoupling, §2.1). Plain local objects are invisible to GGD — exactly
// the decoupling the paper requires.
//
// Reference transfer attributes edge creation at the *receiving* site
// (which global root reaches the recipient is computed locally on
// delivery); the engine-level API (GgdEngine) exercises the paper's
// sender-side lazy rules precisely and is what the protocol experiments
// use. This layer demonstrates the whole system end to end.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "ggd/engine.hpp"
#include "net/network.hpp"
#include "runtime/site.hpp"
#include "sim/simulator.hpp"
#include "wire/mailbox.hpp"

namespace cgc {

class DistributedRuntime : public wire::Mailbox {
 public:
  explicit DistributedRuntime(NetworkConfig net_config = {},
                              LogKeepingMode mode = LogKeepingMode::kRobust)
      : sim_(&sim_pool_), net_(sim_, net_config), engine_(net_, mode) {
    engine_.set_on_removed([this](ProcessId p) { on_global_root_removed(p); });
  }

  /// Wire endpoint for every site of this runtime: object-level reference
  /// transfers are handled here; GGD traffic is forwarded to the engine.
  void deliver(SiteId from, SiteId to, const wire::WireMessage& msg) override;

  // -- Topology -----------------------------------------------------------

  SiteId add_site();

  /// Creates a local-root object on `site` (a mutator entry point).
  ObjectId create_root_object(SiteId site);

  /// Creates a plain object on `site`, referenced from `creator` (which
  /// must live on the same site — remote allocation goes through
  /// `send_ref` of a freshly created object).
  ObjectId create_object(SiteId site, ObjectId creator);

  // -- Mutator operations --------------------------------------------------

  /// Adds a same-site reference from -> to.
  void add_local_ref(ObjectId from, ObjectId to);

  /// Drops one reference held by `from` (local object or proxy target).
  void drop_ref(ObjectId from, ObjectId to);

  /// `sender` sends a message to `recipient` (possibly remote) carrying a
  /// reference to `target`. The sender must hold a reference to both. On
  /// delivery the recipient gains the reference; if `target` is remote to
  /// the recipient's site a proxy materialises there.
  void send_ref(ObjectId sender, ObjectId recipient, ObjectId target);

  // -- Collection ----------------------------------------------------------

  /// Runs one local mark-and-sweep on `site`: root set = local roots +
  /// live global roots (§2.1). Collects unreachable local objects and
  /// proxies; emits edge-destruction messages for global-root-graph edges
  /// that disappeared; registers edges that appeared through local
  /// mutation.
  void collect_site(SiteId site);

  /// Local GC on every site, then message quiescence, repeated until no
  /// site changes — the steady-state whole-system collection cycle.
  /// `sweep_budget` bounds each GGD sweep slice (work units per slice);
  /// the network drains between slices, so a finite budget trades rounds
  /// for bounded pauses without changing the fixpoint.
  void collect_all(std::size_t rounds = 8,
                   std::uint64_t sweep_budget = sweep::kUnbounded);

  /// Runs the simulator to quiescence.
  bool run(std::uint64_t max_events = 10'000'000) {
    return sim_.run(max_events);
  }

  // -- Introspection -------------------------------------------------------

  [[nodiscard]] Site& site(SiteId id);
  [[nodiscard]] const Site& site(SiteId id) const;
  [[nodiscard]] SiteId owner_of(ObjectId id) const;
  [[nodiscard]] bool object_exists(ObjectId id) const;
  [[nodiscard]] std::size_t total_objects() const;

  /// All objects reachable from any local root, through local references
  /// and proxies (the omniscient oracle used by tests).
  [[nodiscard]] std::set<ObjectId> oracle_reachable() const;

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] Network& net() { return net_; }
  [[nodiscard]] GgdEngine& engine() { return engine_; }

 private:
  /// Ensures `target` (local to its owner) is exported and has a GGD
  /// process; returns the process id.
  ProcessId ensure_exported(ObjectId target);

  /// Process id currently representing object `id`, if any.
  [[nodiscard]] ProcessId process_of(ObjectId id) const;

  /// Local reachability on one site from one starting object (following
  /// same-site references only; proxies are leaves).
  void mark_from(const Site& s, ObjectId start, std::set<ObjectId>& seen,
                 std::set<ObjectId>& proxies_seen) const;

  void on_global_root_removed(ProcessId p);

  /// Registers/unregisters GRG edges for `site` after local mutation or
  /// collection: for every global root g, the set of proxies it reaches.
  void refresh_edges(SiteId site);

  /// Backs the simulator's event heap; declared first so every event is
  /// destroyed before its storage goes away.
  Pool sim_pool_;
  Simulator sim_;
  Network net_;
  GgdEngine engine_;
  std::map<SiteId, Site> sites_;
  std::map<ObjectId, SiteId> owner_;
  /// Object -> its current GGD process (fresh id per export generation).
  std::map<ObjectId, ProcessId> process_for_;
  std::map<ProcessId, ObjectId> object_for_;
  /// Engine edges currently registered per site: global root -> proxies.
  std::map<SiteId, std::map<ObjectId, std::set<ObjectId>>> edges_;
  std::uint64_t next_object_ = 0;
  std::uint64_t next_site_ = 0;
  std::uint64_t next_process_ = 0;
  /// Object-level reference transfers apply exactly once even when the
  /// carrying packet is duplicated.
  std::uint64_t next_transfer_ = 0;
  std::set<std::uint64_t> applied_transfers_;
};

}  // namespace cgc
