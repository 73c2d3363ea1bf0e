// Reproduces the paper's worked example (Figures 3, 4, 5 and 8): the
// four-object global root graph, its log-keeping events, and the GGD
// cascade triggered when the root drops its edge to object 2.
//
// Each object sits on its own site, so the object graph and the global
// root graph coincide (§3.1). Paper-exact log-keeping mode is used so the
// event indexes match the figures one for one.
#include <gtest/gtest.h>

#include "ggd/engine.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }
SiteId S(std::uint64_t v) { return SiteId{v}; }

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest()
      : net_(sim_, NetworkConfig{.min_latency = 1,
                                 .max_latency = 1,
                                 .drop_rate = 0.0,
                                 .duplicate_rate = 0.0,
                                 .seed = 1}),
        engine_(net_, LogKeepingMode::kPaperExact) {}

  /// Builds the scenario of Fig. 3 up to (but not including) the
  /// destruction of the edge 1 -> 2, running the simulator to quiescence
  /// between steps so message order matches the figure's sequence.
  void build_figure3_graph() {
    engine_.add_process(P(1), S(1), /*is_root=*/true);
    engine_.create_object(P(1), P(2), S(2));  // e2,1
    sim_.run();
    engine_.create_object(P(2), P(3), S(3));  // e3,1
    sim_.run();
    engine_.create_object(P(2), P(4), S(4));  // e4,1
    sim_.run();
    engine_.send_third_party_ref(P(2), P(3), P(4));  // e3,2: edge 4 -> 3
    sim_.run();
    engine_.send_third_party_ref(P(2), P(4), P(3));  // e4,2: edge 3 -> 4
    sim_.run();
    engine_.send_own_ref(P(2), P(4));  // e2,2: edge 4 -> 2
    sim_.run();
  }

  Timestamp ts(ProcessId owner, ProcessId slot) {
    return engine_.process(owner).self_row().get(slot);
  }

  Simulator sim_;
  Network net_;
  GgdEngine engine_;
};

TEST_F(PaperExampleTest, LazyLogsAfterMutatorPhase) {
  build_figure3_graph();

  // Fig. 5 / Fig. 7: the self rows as maintained by lazy log-keeping.
  // DV_2[2]: e2,1 gave (1,1,0,0); e2,2 (own ref handed to 4) bumped slots
  // 2 and 4 -> (1,2,0,1).
  EXPECT_EQ(ts(P(2), P(1)), Timestamp::creation(1));
  EXPECT_EQ(ts(P(2), P(2)), Timestamp::creation(2));
  EXPECT_EQ(ts(P(2), P(3)), Timestamp{});
  EXPECT_EQ(ts(P(2), P(4)), Timestamp::creation(1));

  // DV_3[3] = DDV(e3,1) = (0,1,1,0): created by 2.
  EXPECT_EQ(ts(P(3), P(1)), Timestamp{});
  EXPECT_EQ(ts(P(3), P(2)), Timestamp::creation(1));
  EXPECT_EQ(ts(P(3), P(3)), Timestamp::creation(1));
  EXPECT_EQ(ts(P(3), P(4)), Timestamp{});

  // DV_4[4] = DDV(e4,1) = (0,1,0,1): created by 2.
  EXPECT_EQ(ts(P(4), P(2)), Timestamp::creation(1));
  EXPECT_EQ(ts(P(4), P(4)), Timestamp::creation(1));

  // Deferred third-party entries (Fig. 7): 2 logged the new edges 4 -> 3
  // and 3 -> 4 on behalf of 3 and 4 respectively — no control message to
  // either was sent.
  EXPECT_EQ(engine_.process(P(2)).log().row(P(3)).get(P(4)),
            Timestamp::creation(1));
  EXPECT_EQ(engine_.process(P(2)).log().row(P(4)).get(P(3)),
            Timestamp::creation(1));

  // Recipient-side records: 4 logged its new edges to 3 and to 2; 3 logged
  // its new edge to 4 (paper-exact rule: DV_j[k][j]++).
  EXPECT_EQ(engine_.process(P(4)).log().row(P(3)).get(P(4)),
            Timestamp::creation(1));
  EXPECT_EQ(engine_.process(P(4)).log().row(P(2)).get(P(4)),
            Timestamp::creation(1));
  EXPECT_EQ(engine_.process(P(3)).log().row(P(4)).get(P(3)),
            Timestamp::creation(1));

  // Acquaintances = out-bound edges of the global root graph (Fig. 3
  // bottom): 1 -> 2; 2 -> 3, 2 -> 4; 3 -> 4; 4 -> 3, 4 -> 2.
  EXPECT_EQ(engine_.process(P(1)).acquaintances(),
            (std::set<ProcessId>{P(2)}));
  EXPECT_EQ(engine_.process(P(2)).acquaintances(),
            (std::set<ProcessId>{P(3), P(4)}));
  EXPECT_EQ(engine_.process(P(3)).acquaintances(),
            (std::set<ProcessId>{P(4)}));
  EXPECT_EQ(engine_.process(P(4)).acquaintances(),
            (std::set<ProcessId>{P(2), P(3)}));

  // Lazy log-keeping sent no control messages at all during the mutator
  // phase — only the reference-carrying mutator messages themselves.
  EXPECT_EQ(net_.stats().control_sent(), 0u);
  EXPECT_EQ(net_.stats().of(MessageKind::kReferencePass).sent, 6u);
}

TEST_F(PaperExampleTest, DestructionMessageFromRootMatchesFigure8) {
  build_figure3_graph();
  // Fig. 8: GGD is triggered when the edge 1 -> 2 is removed; the vector
  // sent from 1 is (E1, 0, 0, 0).
  GgdMessage msg =
      engine_.logkeeping().on_drop_ref(engine_.process(P(1)), P(2));
  EXPECT_TRUE(msg.is_destruction());
  EXPECT_EQ(msg.v.get(P(1)), Timestamp::destruction(1));
  EXPECT_EQ(msg.v.size(), 1u);
}

TEST_F(PaperExampleTest, GgdCollectsTheDisconnectedCycle) {
  build_figure3_graph();
  engine_.drop_ref(P(1), P(2));
  ASSERT_TRUE(sim_.run(100000));

  // Objects 2, 3 and 4 form garbage containing a distributed cycle
  // (3 <-> 4) plus the cyclic path through 2 (4 -> 2 -> 3/4). All three
  // must be detected without any global consensus; the root never
  // participates again.
  EXPECT_TRUE(engine_.process(P(2)).removed());
  EXPECT_TRUE(engine_.process(P(3)).removed());
  EXPECT_TRUE(engine_.process(P(4)).removed());
  EXPECT_EQ(engine_.removed().size(), 3u);
  EXPECT_FALSE(engine_.process(P(1)).removed());
}

TEST_F(PaperExampleTest, EdgeDestructionEventAtTwoMatchesFigure5) {
  build_figure3_graph();
  engine_.drop_ref(P(1), P(2));

  // Run until 2 has processed exactly the destruction message from 1 (one
  // network hop with unit latency).
  while (sim_.pending() > 0 && !engine_.process(P(2)).removed()) {
    // Step one event at a time and stop right after 2's first Receive:
    // its own-counter moving to 3 is the observable effect of e2,3.
    sim_.step();
    if (engine_.process(P(2)).own_timestamp().index() >= 3) {
      break;
    }
  }
  // Fig. 5: the destruction event e2,3 has vector time (E1, 3, ...) — a
  // new local event index 3 with slot 1 destruction-masked.
  EXPECT_EQ(ts(P(2), P(1)), Timestamp::destruction(1));
  EXPECT_EQ(ts(P(2), P(2)), Timestamp::creation(3));
}

TEST_F(PaperExampleTest, ComputeVSeedsWithDestructionMarkers) {
  build_figure3_graph();
  engine_.drop_ref(P(1), P(2));
  ASSERT_TRUE(sim_.run(100000));

  // After the cascade, every collected process had reached a fixed point
  // whose vector time contained no live root entry. Reconstruct 2's final
  // V: slot 1 must be the masked E1, never a live 1.
  const DependencyVector v = engine_.process(P(2)).compute_v();
  EXPECT_TRUE(v.get(P(1)).is_delta());
}

TEST_F(PaperExampleTest, LiveGraphIsNeverCollected) {
  build_figure3_graph();
  // Without dropping 1 -> 2, nothing is garbage; prod GGD by making 4
  // drop its edge to 3 only. 3 stays reachable via 2 -> 3.
  engine_.drop_ref(P(4), P(3));
  ASSERT_TRUE(sim_.run(100000));
  EXPECT_FALSE(engine_.process(P(2)).removed());
  EXPECT_FALSE(engine_.process(P(3)).removed());
  EXPECT_FALSE(engine_.process(P(4)).removed());
}

}  // namespace
}  // namespace cgc
