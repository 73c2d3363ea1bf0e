#include "obs/explain.hpp"

#include <array>
#include <variant>

#include "common/rng.hpp"
#include "wire/batching.hpp"
#include "wire/messages.hpp"

namespace cgc::obs {
namespace {

/// Charges every control message in `trace` to one counter per
/// wire::GgdField (ggd.ctrl_bytes.<field>): the per-field ledger of the
/// bytes the run put on the wire, taken after the run so the protocol
/// pays nothing for it.
void charge_ctrl_bytes(const wire::WireTrace& trace, Registry& registry) {
  std::array<Counter*, wire::kGgdFieldCount> fields{};
  for (std::size_t f = 0; f < wire::kGgdFieldCount; ++f) {
    fields[f] = &registry.counter(
        std::string("ggd.ctrl_bytes.") +
        wire::ggd_field_name(static_cast<wire::GgdField>(f)));
  }
  for (const wire::PacketRecord& packet : trace.packets()) {
    wire::read_packet(
        packet.bytes, [](const wire::PacketHeader&) {},
        [&fields](const wire::WireMessage& msg, std::size_t) {
          if (const auto* c = std::get_if<wire::GgdControl>(&msg.body)) {
            const wire::GgdFieldBytes parts = wire::ggd_field_bytes(c->msg);
            for (std::size_t f = 0; f < parts.size(); ++f) {
              fields[f]->inc(parts[f]);
            }
          }
        });
  }
}

}  // namespace

const char* to_string(Explanation::Cause c) {
  switch (c) {
    case Explanation::Cause::kUnknown:
      return "unknown";
    case Explanation::Cause::kAlreadyCollected:
      return "already_collected";
    case Explanation::Cause::kIsRoot:
      return "is_root";
    case Explanation::Cause::kStillReachable:
      return "still_reachable";
    case Explanation::Cause::kBelievedReachable:
      return "believed_reachable";
    case Explanation::Cause::kInTransitMigration:
      return "in_transit_migration";
    case Explanation::Cause::kUnconfirmedDestruction:
      return "unconfirmed_destruction";
    case Explanation::Cause::kPendingInquiry:
      return "pending_inquiry";
    case Explanation::Cause::kAwaitingSweep:
      return "awaiting_sweep";
    case Explanation::Cause::kNoEvidence:
      return "no_evidence";
  }
  return "?";
}

namespace {

constexpr std::size_t kMaxEvidence = 8;

/// Collects the newest records mentioning `x` at or before `at`.
std::vector<std::string> gather_evidence(const Journal& journal, ProcessId x,
                                         SimTime at) {
  std::vector<std::string> out;
  journal.scan_backwards([&](const Record& r) {
    if (r.at > at) {
      return true;
    }
    if (r.a == x || r.b == x) {
      out.push_back(format_record(r));
    }
    return out.size() < kMaxEvidence;
  });
  return out;
}

Explanation make(Explanation::Cause cause, std::string answer,
                 const Journal& journal, ProcessId x, SimTime at) {
  Explanation e;
  e.cause = cause;
  e.answer = std::move(answer);
  e.evidence = gather_evidence(journal, x, at);
  return e;
}

/// Turns "wait for the next sweep" into a quantified promise: where the
/// process stands in the budget-bounded sweep queue — its generation, how
/// many rounds the generational filter defers it, and roughly how many
/// slices until the scan actually reaches it under the engine's last
/// budget.
std::string backlog_note(const GgdEngine& engine, ProcessId x) {
  const sweep::Backlog b = engine.sweep_backlog(x);
  std::string note =
      " (sweep backlog: generation " + std::to_string(b.generation) +
      ", eligible ";
  if (b.rounds_until_eligible == 0) {
    note += "next round";
  } else {
    note += "in " + std::to_string(b.rounds_until_eligible + 1) + " rounds";
  }
  note += ", ~" + std::to_string(b.estimated_slices) +
          (b.estimated_slices == 1 ? " slice" : " slices") +
          " until its scan)";
  return note;
}

}  // namespace

Explanation explain_not_collected(const Journal& journal,
                                  const GgdEngine& engine, ProcessId x,
                                  SimTime at,
                                  const ReachabilityOracle* truth) {
  using Cause = Explanation::Cause;
  const std::string name = x.str();

  if (!engine.has_process(x)) {
    return make(Cause::kUnknown, "no process " + name + " was ever registered",
                journal, x, at);
  }

  // Most recent decisive records about x, newest wins per category.
  bool reclaimed = false;
  SimTime reclaimed_at = 0;
  ProcessId condemned_by;  // the walker, when a condemned set removed x
  bool have_migration = false;
  bool migration_open = false;  // newest freeze/deliver is a freeze
  bool have_walk = false;
  WalkVerdict walk = WalkVerdict::kReachable;
  SimTime walk_at = 0;
  bool inquiry_after_walk = false;
  bool any_sweep = false;
  journal.scan_backwards([&](const Record& r) {
    if (r.at > at) {
      return true;
    }
    switch (r.kind) {
      case EventKind::kReclaim:
        if (!reclaimed && r.a == x) {
          reclaimed = true;
          reclaimed_at = r.at;
        }
        break;
      case EventKind::kCondemned:
        if (!reclaimed && r.a == x) {
          condemned_by = r.b;
        }
        break;
      case EventKind::kMigrateFreeze:
      case EventKind::kMigrateDeliver:
        if (!have_migration && r.a == x) {
          have_migration = true;
          migration_open = r.kind == EventKind::kMigrateFreeze;
        }
        break;
      case EventKind::kWalkVerdict:
        if (!have_walk && r.a == x) {
          have_walk = true;
          walk = walk_result(r.detail);
          walk_at = r.at;
        }
        break;
      case EventKind::kSweepEnd:
        any_sweep = true;
        break;
      default:
        break;
    }
    return true;
  });

  if (reclaimed) {
    std::string answer =
        name + " was collected at tick " + std::to_string(reclaimed_at);
    if (condemned_by.valid()) {
      answer += ", without a walk of its own: walker " + condemned_by.str() +
                "'s confirmed unreachable verdict consulted its row and "
                "condemned it";
    }
    return make(Cause::kAlreadyCollected, std::move(answer), journal, x, at);
  }
  if (engine.process(x).is_root()) {
    return make(Cause::kIsRoot, name + " is a root; roots are never collected",
                journal, x, at);
  }
  if (truth != nullptr && truth->reachable_at(at).contains(x)) {
    return make(Cause::kStillReachable,
                name + " is reachable from a root at tick " +
                    std::to_string(at) + " — it is not garbage",
                journal, x, at);
  }
  if (migration_open) {
    // Checked before the destruction/walk evidence: a frozen mover is
    // skipped by sweeps and receives no decisions, so whatever stale walk
    // records precede the freeze are moot until the snapshot lands.
    return make(Cause::kInTransitMigration,
                name + " is frozen mid-migration: its hand-off snapshot has "
                       "not been delivered, and frozen processes are skipped "
                       "by every sweep",
                journal, x, at);
  }

  // An emitted-but-undelivered destruction naming x: the fact that should
  // start (or unblock) x's collection is still in flight or lost.
  bool undelivered_destruction = false;
  ProcessId dropper;
  journal.scan_backwards([&](const Record& r) {
    if (r.at > at) {
      return true;
    }
    if (r.kind == EventKind::kDestructionDeliver && r.b == x) {
      // Newest destruction event for x is a delivery — nothing owed.
      return false;
    }
    if (r.kind == EventKind::kDestructionEmit && r.b == x) {
      undelivered_destruction = true;
      dropper = r.a;
      return false;
    }
    return true;
  });
  if (undelivered_destruction) {
    return make(Cause::kUnconfirmedDestruction,
                "the destruction of edge " + dropper.str() + " -> " + name +
                    " was emitted but never delivered (lost or in flight); "
                    "the next sweep re-emits it",
                journal, x, at);
  }

  if (have_walk) {
    if (walk == WalkVerdict::kReachable) {
      if (truth != nullptr) {
        // Ground truth says garbage, the engine's evidence says live: a
        // replica row is stale. Sweeps re-verify reachable verdicts, so
        // this resolves at the next sweep round.
        return make(Cause::kAwaitingSweep,
                    name + "'s newest walk still proves a path to a root "
                           "from replicated rows that ground truth says are "
                           "stale; the next sweep re-verifies them" +
                        backlog_note(engine, x),
                    journal, x, at);
      }
      return make(Cause::kBelievedReachable,
                  name + "'s newest walk (tick " + std::to_string(walk_at) +
                      ") found a live path to a root in its replicated "
                      "evidence",
                  journal, x, at);
    }
    // Blocked or unreachable-pending-confirmation: is an inquiry out?
    journal.scan_backwards([&](const Record& r) {
      if (r.at > at) {
        return true;
      }
      if (r.at < walk_at) {
        return false;
      }
      if (r.kind == EventKind::kInquiry && r.a == x) {
        inquiry_after_walk = true;
        return false;
      }
      return true;
    });
    const char* verdict_word =
        walk == WalkVerdict::kBlocked ? "blocked" : "unconfirmed-unreachable";
    if (inquiry_after_walk) {
      return make(Cause::kPendingInquiry,
                  name + "'s newest walk (tick " + std::to_string(walk_at) +
                      ") was " + verdict_word +
                      " and an inquiry is in flight for the missing "
                      "evidence",
                  journal, x, at);
    }
    return make(Cause::kAwaitingSweep,
                name + "'s newest walk (tick " + std::to_string(walk_at) +
                    ") was " + verdict_word +
                    " with nothing in flight; only the next periodic sweep "
                    "retries" +
                    backlog_note(engine, x),
                journal, x, at);
  }

  if (!any_sweep) {
    return make(Cause::kAwaitingSweep,
                "no sweep has run by tick " + std::to_string(at) +
                    " and no decision ever reached " + name +
                    " — collection is starved until the first sweep" +
                    backlog_note(engine, x),
                journal, x, at);
  }
  return make(Cause::kNoEvidence,
              "the journal holds no decision about " + name +
                  " up to tick " + std::to_string(at),
              journal, x, at);
}

std::unique_ptr<SeedReplay> replay_trace(const ScenarioSpec& spec,
                                         const std::vector<MutatorOp>& ops) {
  auto replay = std::make_unique<SeedReplay>();
  replay->spec = spec;
  replay->ops = ops;
  replay->scenario = std::make_unique<Scenario>(
      Scenario::Config{.net = spec.net_config(),
                       .mode = LogKeepingMode::kRobust,
                       .num_sites = spec.num_sites});
  Scenario& s = *replay->scenario;
  s.net().set_trace(&replay->trace);
  s.engine().attach_obs(&replay->registry, &replay->journal);
  // Pacing mirrors the conformance runner's GGD path op-for-op (same
  // burst RNG stream) — observability being passive, the wire behaviour
  // is byte-identical to the unobserved run.
  Rng burst_rng(spec.seed * 0x2545f4914f6cdd1dULL + 1);
  for (const MutatorOp& op : ops) {
    if (s.apply(op)) {
      ++replay->applied_ops;
    } else {
      ++replay->skipped_ops;
    }
    if (spec.paced) {
      s.run();
    } else {
      s.sim().run(burst_rng.below(48));
    }
  }
  s.run();
  s.net().set_drop_rate(0.0);
  s.net().set_duplicate_rate(0.0);
  s.run_with_sweeps(16);
  charge_ctrl_bytes(replay->trace, replay->registry);
  return replay;
}

std::unique_ptr<SeedReplay> replay_seed(std::uint64_t seed) {
  const ScenarioSpec spec = spec_from_seed(seed);
  return replay_trace(spec, generate_trace(spec));
}

}  // namespace cgc::obs
