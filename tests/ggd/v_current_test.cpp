// The reused V: GgdProcess keeps the last closure it computed and serves
// it again while the closure's inputs (self row, certified histories,
// death knowledge) are unchanged. Every test here holds compute_v() to the
// reference closure, which always recomputes: one test per write that can
// change an input, and a per-event differential over generated scenarios
// on the simulator host. The same scenarios also hold every delivered
// reply, a current one included, to what a full reply would leave.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "ggd/process.hpp"
#include "reference_closure.hpp"
#include "logkeeping/lazy_logkeeping.hpp"
#include "obs/metrics.hpp"
#include "scenario/spec.hpp"
#include "wire/batching.hpp"
#include "wire/trace.hpp"
#include "workload/scenario.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

constexpr auto all_roots = [](ProcessId) { return true; };

/// A root (roots never decide, so receive() only merges and closes V)
/// whose closures are counted.
GgdProcess observed_root(std::uint64_t id) {
  GgdProcess p(P(id), /*is_root=*/true);
  p.set_observed(true);
  return p;
}

DependencyVector dv(std::initializer_list<std::pair<std::uint64_t, Timestamp>>
                        entries) {
  DependencyVector v;
  for (const auto& [q, ts] : entries) {
    v.set(P(q), ts);
  }
  return v;
}

GgdMessage vector_from(std::uint64_t from, std::uint64_t to,
                       DependencyVector v) {
  GgdMessage m;
  m.from = P(from);
  m.to = P(to);
  m.v = std::move(v);
  return m;
}

/// A reply from a process that holds its receiver (a reply saying it does
/// not would refute the receiver's in-edge from it).
GgdMessage reply_from(std::uint64_t from, std::uint64_t to,
                      DependencyVector v) {
  GgdMessage m = vector_from(from, to, std::move(v));
  m.reply = true;
  m.holds_receiver = true;
  return m;
}

Timestamp C(std::uint64_t i) { return Timestamp::creation(i); }
Timestamp E(std::uint64_t i) { return Timestamp::destruction(i); }

/// V is current: compute_v() serves it without a closure, and it is the
/// reference closure of the current state.
void expect_reused(GgdProcess& p) {
  (void)p.take_v_closures();
  EXPECT_EQ(p.compute_v(), reference_compute_v(p));
  EXPECT_EQ(p.take_v_closures(), 0u) << "V should have been reused";
}

/// After a write to a closure input: compute_v() must recompute, and
/// agree with the reference.
void expect_recomputed(GgdProcess& p) {
  (void)p.take_v_closures();
  EXPECT_EQ(p.compute_v(), reference_compute_v(p));
  EXPECT_EQ(p.take_v_closures(), 1u) << "a stale V was served";
}

TEST(VCurrent, NoOpReceiveAndReplyReuseTheClosure) {
  GgdProcess p = observed_root(1);
  p.log().self_row().set(P(3), C(1));
  const GgdMessage msg = reply_from(3, 1, dv({{4, C(1)}}));
  (void)p.receive(msg, all_roots);
  EXPECT_EQ(p.take_v_closures(), 1u);
  (void)p.receive(msg, all_roots);  // a duplicate changes no input
  EXPECT_EQ(p.take_v_closures(), 0u);
  GgdMessage inquiry;
  inquiry.from = P(3);
  inquiry.to = p.id();
  inquiry.inquiry = true;
  const GgdMessage reply = p.make_reply(inquiry);
  EXPECT_EQ(p.take_v_closures(), 0u);
  EXPECT_EQ(reply.v, reference_compute_v(p));
  EXPECT_FALSE(reply.v.get(P(4)).is_delta());
}

TEST(VCurrent, MutatorWriteThroughLogInvalidates) {
  GgdProcess p = observed_root(1);
  // P(5)'s certified history is known, but nothing reaches us from P(5)
  // yet, so V leaves it unexpanded.
  (void)p.receive(reply_from(5, 1, dv({{6, C(2)}})), all_roots);
  expect_reused(p);
  LazyLogKeeping lk;
  lk.on_send_own_ref(p, P(5));  // P(5) now holds us: a live slot
  expect_recomputed(p);
  EXPECT_FALSE(p.compute_v().get(P(6)).is_delta());
}

TEST(VCurrent, AbsorbedRegrantInvalidates) {
  GgdProcess p = observed_root(1);
  (void)p.receive(vector_from(3, 1, dv({{3, C(2)}, {4, C(1)}})), all_roots);
  (void)p.receive(vector_from(3, 1, dv({{3, E(3)}})), all_roots);
  expect_reused(p);
  ASSERT_TRUE(p.compute_v().get(P(4)).is_delta()) << "marker masks P(3)";
  // An inquiry carries a deferred grant below the marker: answering it
  // resurrects slot 3, which makes P(3)'s history count again.
  GgdMessage inquiry;
  inquiry.from = P(9);
  inquiry.to = p.id();
  inquiry.inquiry = true;
  inquiry.behalf = dv({{3, C(1)}});
  (void)p.answer(inquiry);
  expect_recomputed(p);
  EXPECT_FALSE(p.compute_v().get(P(4)).is_delta());
}

TEST(VCurrent, DecertifiedRowInvalidates) {
  GgdProcess p = observed_root(1);
  (void)p.receive(vector_from(3, 1, dv({{3, C(1)}, {4, C(1)}})), all_roots);
  expect_reused(p);
  p.decertify_row(P(3));
  expect_recomputed(p);
  EXPECT_TRUE(p.compute_v().get(P(4)).is_delta());
}

TEST(VCurrent, ImportedStateInvalidates) {
  GgdProcess p = observed_root(1);
  (void)p.receive(vector_from(3, 1, dv({{3, C(1)}, {4, C(1)}})), all_roots);
  expect_reused(p);
  // The wire's snapshot carries a self row the snapshot's V predates.
  GgdProcessSnapshot snap = p.export_state();
  snap.log_rows.find(P(1))->second.set(P(5), C(1));
  p.import_state(snap);
  expect_recomputed(p);
  EXPECT_FALSE(p.compute_v().get(P(5)).is_delta());
}

TEST(VCurrent, DeathLearnedFromTheDeadSetAloneInvalidates) {
  GgdProcess p = observed_root(1);
  p.log().self_row().set(P(3), C(1));
  (void)p.receive(reply_from(3, 1, dv({{4, C(1)}, {5, C(1)}})), all_roots);
  expect_reused(p);
  // A message whose only news is a death certificate.
  GgdMessage death = reply_from(6, 1, {});
  death.dead.insert(P(4));
  (void)p.receive(death, all_roots);
  expect_reused(p);  // receive() closed V again
  EXPECT_TRUE(p.compute_v().get(P(4)).is_delta());
  EXPECT_FALSE(p.compute_v().get(P(5)).is_delta());
}

TEST(VCurrent, HistoryMergeThatChangesTheRowInvalidates) {
  // A reply: the row merges into P(3)'s history, the self row is
  // untouched.
  GgdProcess p = observed_root(1);
  p.log().self_row().set(P(3), C(1));
  (void)p.receive(reply_from(3, 1, dv({{4, C(1)}})), all_roots);
  (void)p.take_v_closures();
  (void)p.receive(reply_from(3, 1, dv({{4, C(2)}, {5, C(1)}})), all_roots);
  EXPECT_EQ(p.take_v_closures(), 1u);
  expect_reused(p);
  EXPECT_EQ(p.compute_v().get(P(4)), C(2));

  // A vector forward whose own slot is unchanged: only the history moves.
  GgdProcess q = observed_root(1);
  (void)q.receive(vector_from(3, 1, dv({{3, C(1)}, {4, C(1)}})), all_roots);
  (void)q.take_v_closures();
  (void)q.receive(vector_from(3, 1, dv({{3, C(1)}, {4, C(2)}})), all_roots);
  EXPECT_EQ(q.take_v_closures(), 1u);
  expect_reused(q);
  EXPECT_EQ(q.compute_v().get(P(4)), C(2));
}

// ---- per-event differential over generated scenarios -------------------

struct DifferentialStats {
  std::size_t events = 0;
  std::size_t checks = 0;
  std::size_t reused = 0;
};

/// Holds every live process's compute_v() to the reference closure.
void check_every_process(GgdEngine& engine, DifferentialStats& st,
                         const std::string& where) {
  for (ProcessId id : engine.process_ids()) {
    GgdProcess& p = engine.process(id);
    if (p.removed()) {
      continue;
    }
    (void)p.take_v_closures();
    const DependencyVector got = p.compute_v();
    st.reused += p.take_v_closures() == 0 ? 1 : 0;
    ++st.checks;
    ASSERT_EQ(got, reference_compute_v(p)) << where << ", process " << id.str();
  }
}

/// A check run after every mutator op, sweep and simulator event;
/// `idle` is set once the simulator has drained.
using EventCheck = std::function<void(Scenario&, const std::string& where,
                                      bool idle)>;

/// Steps the scenario's simulator one event at a time, at most `limit`
/// events, running `check` after each. Returns false if the simulator
/// was still busy after `limit` events.
bool step_and_check(Scenario& s, std::uint64_t limit, std::size_t& events,
                    const EventCheck& check, const std::string& where) {
  for (std::uint64_t k = 0; k < limit; ++k) {
    if (!s.sim().step()) {
      check(s, where, /*idle=*/true);
      return true;
    }
    ++events;
    check(s, where, /*idle=*/false);
    if (::testing::Test::HasFatalFailure()) {
      return true;
    }
  }
  return false;
}

/// Drives one generated scenario the way the conformance runner does
/// (mutation under the spec's faults and pacing, then heal and sweeps),
/// running `check` after every mutator op and every event. `setup` sees
/// the scenario before its first op.
void run_stepped(std::uint64_t seed, std::size_t& events,
                 const EventCheck& check,
                 const std::function<void(Scenario&)>& setup) {
  const ScenarioSpec spec = spec_from_seed(seed);
  const std::vector<MutatorOp> ops = generate_trace(spec);
  obs::Registry reg;  // outlives the engine, which caches its counters
  Scenario s(Scenario::Config{.net = spec.net_config(),
                              .mode = LogKeepingMode::kRobust,
                              .num_sites = spec.num_sites});
  // Observed processes count their closures, which is how a check tells a
  // reused V from a recomputed one.
  s.engine().attach_obs(&reg, nullptr);
  setup(s);
  constexpr std::uint64_t kDrainLimit = 2'000'000;
  Rng burst_rng(seed * 0x2545f4914f6cdd1dULL + 1);
  const std::string where = spec.describe();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (void)s.apply(ops[i]);
    check(s, where + " after op " + std::to_string(i), /*idle=*/false);
    const std::uint64_t burst =
        spec.paced ? kDrainLimit : burst_rng.below(48);
    const bool drained = step_and_check(s, burst, events, check, where);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(drained || !spec.paced) << where << ": did not quiesce";
  }
  ASSERT_TRUE(step_and_check(s, kDrainLimit, events, check, where));
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  s.net().set_drop_rate(0.0);
  s.net().set_duplicate_rate(0.0);
  for (int round = 0; round < 4; ++round) {
    s.engine().periodic_sweep();
    check(s, where + " after a sweep", /*idle=*/false);
    ASSERT_TRUE(step_and_check(s, kDrainLimit, events, check, where));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

void run_differential(std::uint64_t seed, DifferentialStats& st) {
  run_stepped(
      seed, st.events,
      [&st](Scenario& s, const std::string& where, bool) {
        check_every_process(s.engine(), st, where);
      },
      [](Scenario&) {});
}

/// The seeds both differentials step through.
std::vector<std::uint64_t> differential_seeds() {
  // Seeds 1-14 cover every class. Of seeds 1-300, 22 and 52 are
  // two of the few on which a build that skipped the invalidation for a
  // newly learned death served a stale V; they keep that mutation caught
  // here as well as by its unit test above.
  std::vector<std::uint64_t> seeds = {22, 52};
  for (std::uint64_t seed = 1; seed <= 14; ++seed) {
    seeds.push_back(seed);
  }
  return seeds;
}

TEST(VCurrent, EveryEventOfGeneratedScenariosServesTheReferenceClosure) {
  DifferentialStats st;
  std::set<ScenarioClass> classes;
  for (std::uint64_t seed : differential_seeds()) {
    classes.insert(spec_from_seed(seed).cls);
    run_differential(seed, st);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  EXPECT_EQ(classes.size(), static_cast<std::size_t>(ScenarioClass::kCount))
      << "every scenario class, faulty_lossy and migration included";
  EXPECT_GT(st.events, 10'000u);
  // Most checks must be served from the reused V, or this test would not
  // exercise it.
  EXPECT_GT(st.reused * 2, st.checks);
}

// ---- the reply's on-behalf frontier, per event ------------------------

/// A process's deferred on-behalf rows: every non-empty log row but its
/// own, as shipping every row would send them.
using BehalfRows = FlatMap<ProcessId, DependencyVector>;

BehalfRows behalf_rows_of(const GgdProcess& p) {
  BehalfRows out;
  for (const auto& [q, row] : p.log().rows()) {
    if (q != p.id() && !row.empty()) {
      out.emplace(q, row);
    }
  }
  return out;
}

/// A reply seen on the wire, awaiting its delivery at `site`: the rows
/// its replier held when it built the reply (the one to its inquirer left
/// out), and the V and self row a full reply would have carried.
struct SentReply {
  SimTime delivered_at = 0;
  SiteId site;
  ProcessId inquirer;
  ProcessId replier;
  bool current = false;
  BehalfRows rows;
  DependencyVector v;
  DependencyVector self_row;
};

struct FrontierStats {
  std::size_t replies = 0;        // delivered replies checked
  std::size_t current = 0;        // of them, current replies
  std::size_t rows_checked = 0;   // rows held to the inquirer's overlay
  std::size_t echo_rows = 0;      // rows under a live echo, checked
};

/// Holds the delta rule to the full-ship rule after every event:
///   * each delivered reply left its inquirer's known_behalf() covering
///     every row its replier held when it built the reply, and its
///     history() row and known_row() of the replier as merging the
///     replier's V and self row would leave them: a current reply, which
///     carries neither, is held to the V and self row its replier had;
///   * every row a replier stamped at or under an inquirer's current echo
///     is already covered there, so leaving it out of the next reply
///     loses nothing. An echo of an earlier incarnation of the replier
///     lies below every stamp the current one drew, so it passes no row.
/// A reply's build-time rows are read from the replier before the event
/// that built it: within an event a log row only grows (a reference
/// arrives), so those rows are a lower bound of what the reply held. A
/// current reply's V and self row are read from the replier after that
/// event, as compute_v() and its self row: nothing the event does after
/// building the reply reaches the replier unless the same packet carries
/// it a later message. Such a message could make the check flag a sound
/// reply; on the seeds below it flags none.
class FrontierCheck {
 public:
  explicit FrontierCheck(FrontierStats& st) : st_(st) {}

  void attach(Scenario& s) {
    s.net().set_trace(&trace_);
    snapshot(s.engine());
  }

  void operator()(Scenario& s, const std::string& where, bool idle) {
    GgdEngine& engine = s.engine();
    const wire::WireTrace& trace = trace_;
    for (; seen_ < trace.size(); ++seen_) {
      const wire::PacketRecord& rec = trace.packets()[seen_];
      if (rec.delivered_at.empty()) {
        continue;  // dropped
      }
      wire::read_packet(
          rec.bytes, [](const wire::PacketHeader&) {},
          [&](const wire::WireMessage& msg, std::size_t) {
            const auto* c = std::get_if<wire::GgdControl>(&msg.body);
            if (c == nullptr || !c->msg.reply) {
              return;
            }
            const GgdMessage& r = c->msg;
            auto held = before_.find(r.from);
            if (held == before_.end()) {
              return;
            }
            SentReply sent{rec.delivered_at.front(), rec.to, r.to, r.from,
                           r.current, held->second, r.v, r.self_row};
            sent.rows.erase(r.to);
            if (r.current) {
              const GgdProcess& replier = engine.process(r.from);
              sent.v = replier.compute_v();
              sent.self_row = replier.log().self_row();
            }
            pending_.push_back(std::move(sent));
          });
    }
    const SimTime now = s.sim().now();
    std::vector<SentReply> later;
    for (SentReply& sent : pending_) {
      if (sent.delivered_at > now || (sent.delivered_at == now && !idle)) {
        later.push_back(std::move(sent));
        continue;
      }
      const GgdProcess& i = engine.process(sent.inquirer);
      if (i.removed() || engine.migrating(sent.inquirer) ||
          engine.site_of(sent.inquirer) != sent.site) {
        continue;  // not merged on delivery: redirected after a hand-off
      }
      ++st_.replies;
      st_.current += sent.current ? 1 : 0;
      if (!i.dead().contains(sent.replier)) {
        // A full reply from a process known dead merges its V into a
        // history row no one reads again, and adopts no row: skipped.
        check_content(i, sent, where);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
      for (const auto& [q, row] : sent.rows) {
        if (q == i.id() || i.dead().contains(q)) {
          continue;  // never merged, by either rule
        }
        ++st_.rows_checked;
        ASSERT_TRUE(covers(i.known_behalf().row(q), row))
            << where << ": process " << i.id().str()
            << " lacks a deferred row of " << q.str()
            << " that a delivered reply held";
      }
    }
    pending_ = std::move(later);
    check_echoes(engine, where);
    snapshot(engine);
  }

 private:
  static bool covers(const RowTable::RowView& known,
                     const DependencyVector& row) {
    for (const auto& [p, ts] : row.entries()) {
      if (!(Timestamp::merge(known.get(p), ts) == known.get(p))) {
        return false;
      }
    }
    return true;
  }

  /// Whether adopting `row` as the row of `subject` (replace-if-newer by
  /// the subject's own slot, merge at an equal index) would leave `known`
  /// as it is.
  static bool adopts_nothing(const RowTable::RowView& known,
                             ProcessId subject, const DependencyVector& row) {
    if (!known.exists()) {
      return false;
    }
    const std::uint64_t stored = known.get(subject).index();
    const std::uint64_t incoming = row.get(subject).index();
    return incoming < stored || (incoming == stored && covers(known, row));
  }

  /// The inquirer's history row and known row of the replier are what
  /// merging the reply's full content would leave.
  void check_content(const GgdProcess& i, const SentReply& sent,
                     const std::string& where) {
    const ProcessId r = sent.replier;
    ASSERT_TRUE(i.row_certified(r) && covers(i.history().row(r), sent.v))
        << where << ": process " << i.id().str() << "'s history of "
        << r.str() << " lacks the V " << sent.v.str() << " of a delivered "
        << (sent.current ? "current" : "full") << " reply";
    ASSERT_TRUE(adopts_nothing(i.known_row(r), r, sent.self_row))
        << where << ": process " << i.id().str() << "'s row of " << r.str()
        << " lacks the self row " << sent.self_row.str() << " of a delivered "
        << (sent.current ? "current" : "full") << " reply";
  }

  void check_echoes(GgdEngine& engine, const std::string& where) {
    for (ProcessId id : engine.process_ids()) {
      const GgdProcess& i = engine.process(id);
      if (i.removed()) {
        continue;
      }
      for (ProcessId r : engine.process_ids()) {
        const std::uint64_t echo = i.echo(r);
        if (echo == 0) {
          continue;
        }
        const GgdProcess& replier = engine.process(r);
        for (const auto& [q, row] : replier.log().rows()) {
          const std::uint64_t stamp = row.stamp();
          if (q == r || q == id || stamp == 0 || stamp > echo ||
              i.dead().contains(q)) {
            continue;
          }
          ++st_.echo_rows;
          ASSERT_TRUE(covers(i.known_behalf().row(q), row))
              << where << ": process " << id.str() << "'s echo for "
              << r.str() << " passes a row of " << q.str()
              << " it never merged";
        }
      }
    }
  }

  void snapshot(GgdEngine& engine) {
    before_.clear();
    for (ProcessId id : engine.process_ids()) {
      const GgdProcess& p = engine.process(id);
      if (!p.removed()) {
        before_.emplace(id, behalf_rows_of(p));
      }
    }
  }

  FrontierStats& st_;
  wire::WireTrace trace_;
  std::size_t seen_ = 0;
  FlatMap<ProcessId, BehalfRows> before_;
  std::vector<SentReply> pending_;
};

TEST(ReplyFrontier, EveryDeliveredReplyLeavesWhatAFullReplyWould) {
  FrontierStats st;
  std::size_t events = 0;
  for (std::uint64_t seed : differential_seeds()) {
    FrontierCheck check(st);
    run_stepped(
        seed, events,
        [&check](Scenario& s, const std::string& where, bool idle) {
          check(s, where, idle);
        },
        [&check](Scenario& s) { check.attach(s); });
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  std::printf(
      "replies=%zu current=%zu rows_checked=%zu echo_rows=%zu events=%zu\n",
      st.replies, st.current, st.rows_checked, st.echo_rows, events);
  // The checks must have teeth: current replies, replies that carried
  // deferred rows, and rows left out of replies because they lay under a
  // live echo.
  EXPECT_GT(st.replies, 1'000u);
  EXPECT_GT(st.current, 1'000u);
  EXPECT_GT(st.rows_checked, 1'000u);
  EXPECT_GT(st.echo_rows, 1'000u);
}

// ---- the relay's revision stamps, per event --------------------------

struct StampStats {
  std::size_t rows_checked = 0;  // (holder, subject) rows seen per event
  std::size_t changes = 0;       // row contents that changed
};

/// Holds every live process's known rows to the relay's stamp rule after
/// every event: a known row carries a stamp, the stamp of a holder's row
/// of q never goes down, and a row whose content changed since the last
/// event carries a larger stamp than before. The rule spans the row's
/// erasure and re-adoption and the holder's migration, so a peer whose
/// frontier passed the old stamp always receives the new content.
class StampCheck {
 public:
  explicit StampCheck(StampStats& st) : st_(st) {}

  void operator()(Scenario& s, const std::string& where) {
    GgdEngine& engine = s.engine();
    for (ProcessId id : engine.process_ids()) {
      const GgdProcess& p = engine.process(id);
      if (p.removed()) {
        continue;
      }
      for (ProcessId q : engine.process_ids()) {
        const RowTable::RowView row = p.known_row(q);
        if (!row.exists()) {
          continue;
        }
        ++st_.rows_checked;
        const std::uint64_t stamp = row.stamp();
        ASSERT_NE(stamp, 0u) << where << ": process " << id.str()
                             << " holds an unstamped row of " << q.str();
        auto [it, fresh] = last_.try_emplace({id, q});
        Seen& seen = it->second;
        if (!fresh && stamp == seen.stamp && same(row, seen.row)) {
          continue;
        }
        if (!fresh && !same(row, seen.row)) {
          ++st_.changes;
        }
        ASSERT_TRUE(fresh || stamp > seen.stamp)
            << where << ": process " << id.str() << "'s row of " << q.str()
            << " went from " << seen.row.str() << " at stamp " << seen.stamp
            << " to " << row.str() << " at stamp " << stamp;
        seen = Seen{stamp, row.to_dv()};
      }
    }
  }

 private:
  struct Seen {
    std::uint64_t stamp = 0;
    DependencyVector row;
  };

  static bool same(const RowTable::RowView& row, const DependencyVector& dv) {
    if (row.size() != dv.size()) {
      return false;
    }
    for (const auto& [q, ts] : row) {
      if (!(dv.get(q) == ts)) {
        return false;
      }
    }
    return true;
  }

  StampStats& st_;
  /// Per (holder, subject): the row and stamp last seen, kept after the
  /// row is erased so a re-adoption is held to them too.
  std::map<std::pair<ProcessId, ProcessId>, Seen> last_;
};

TEST(RelayStamps, EveryKnownRowChangeDrawsALargerStamp) {
  StampStats st;
  std::size_t events = 0;
  for (std::uint64_t seed : differential_seeds()) {
    StampCheck check(st);
    run_stepped(
        seed, events,
        [&check](Scenario& s, const std::string& where, bool) {
          check(s, where);
        },
        [](Scenario&) {});
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  std::printf("rows_checked=%zu changes=%zu events=%zu\n", st.rows_checked,
              st.changes, events);
  EXPECT_GT(st.changes, 1'000u) << "the check must see rows change";
}

}  // namespace
}  // namespace cgc
