// Baseline correctness: each comparator collects what its algorithm is
// supposed to collect (and, for WRC, leaks exactly what the paper says
// non-comprehensive schemes leak).
#include <gtest/gtest.h>

#include "baselines/schelvis/schelvis.hpp"
#include "baselines/tracing/tracing.hpp"
#include "baselines/wrc/wrc.hpp"
#include "workload/ops.hpp"
#include "workload/replay.hpp"

namespace cgc {
namespace {

NetworkConfig unit_net(std::uint64_t seed) {
  return NetworkConfig{.min_latency = 1,
                       .max_latency = 1,
                       .drop_rate = 0,
                       .duplicate_rate = 0,
                       .seed = seed};
}

TEST(Schelvis, CollectsDisconnectedDoublyLinkedList) {
  Simulator sim;
  Network net(sim, unit_net(1));
  SchelvisEngine eng(net);
  std::vector<ProcessId> elems;
  const TraceBuilder t = traces::doubly_linked_list(8, &elems);
  replay_on_baseline(eng, sim, t.ops());
  EXPECT_EQ(eng.removed_count(), 8u);
  for (ProcessId e : elems) {
    EXPECT_TRUE(eng.removed(e));
  }
}

TEST(Schelvis, CollectsRingWithSubcycles) {
  Simulator sim;
  Network net(sim, unit_net(2));
  SchelvisEngine eng(net);
  std::vector<ProcessId> elems;
  const TraceBuilder t = traces::ring_with_subcycles(10, &elems);
  replay_on_baseline(eng, sim, t.ops());
  EXPECT_EQ(eng.removed_count(), 10u);
}

TEST(Schelvis, KeepsLiveStructure) {
  Simulator sim;
  Network net(sim, unit_net(3));
  SchelvisEngine eng(net);
  TraceBuilder t;
  const ProcessId root = t.add_root();
  const ProcessId a = t.create(root);
  const ProcessId b = t.create(a);
  t.link_own(a, b);  // cycle a <-> b, still rooted
  replay_on_baseline(eng, sim, t.ops());
  EXPECT_FALSE(eng.removed(a));
  EXPECT_FALSE(eng.removed(b));
}

TEST(Schelvis, QuadraticMessageGrowthOnLists) {
  // §4: O(k^2) messages for a k-element doubly-linked list. Verify the
  // superlinear growth ratio between k and 2k.
  auto run_k = [](std::size_t k) {
    Simulator sim;
    Network net(sim, unit_net(7));
    SchelvisEngine eng(net);
    const TraceBuilder t = traces::doubly_linked_list(k);
    replay_on_baseline(eng, sim, t.ops());
    return net.stats().of(MessageKind::kSchelvisPacket).sent;
  };
  const auto m1 = run_k(10);
  const auto m2 = run_k(20);
  // Quadratic: doubling k should roughly quadruple packets (allow slack).
  EXPECT_GT(m2, m1 * 3);
}

TEST(Tracing, CollectsEverythingUnreachableInOneCycle) {
  Simulator sim;
  Network net(sim, unit_net(4));
  TracingCollector eng(net);
  const TraceBuilder t = traces::ring_with_subcycles(6);
  replay_on_baseline(eng, sim, t.ops());
  EXPECT_EQ(eng.removed_count(), 0u) << "nothing reclaimed before the cycle";
  EXPECT_EQ(eng.run_cycle(), 6u);
  sim.run();
}

TEST(Tracing, AllSitesParticipate) {
  Simulator sim;
  Network net(sim, unit_net(5));
  TracingCollector eng(net);
  const TraceBuilder t = traces::live_and_garbage(12, 4);
  replay_on_baseline(eng, sim, t.ops());
  eng.run_cycle();
  sim.run();
  // 1 root + 12 live + 4 garbage objects, each on its own site.
  EXPECT_EQ(eng.participating_sites(), 17u);
}

TEST(Tracing, MessagesScaleWithLiveObjects) {
  auto run_live = [](std::size_t live) {
    Simulator sim;
    Network net(sim, unit_net(6));
    TracingCollector eng(net);
    const TraceBuilder t = traces::live_and_garbage(live, 4);
    replay_on_baseline(eng, sim, t.ops());
    net.stats().reset();
    eng.run_cycle();
    sim.run();
    return net.stats().of(MessageKind::kTracingControl).sent;
  };
  const auto small = run_live(8);
  const auto big = run_live(64);
  EXPECT_GT(big, small * 4) << "tracing cost must grow with live objects";
}

TEST(Wrc, CollectsAcyclicGarbageCheaply) {
  Simulator sim;
  Network net(sim, unit_net(8));
  WrcEngine eng(net);
  TraceBuilder t;
  const ProcessId root = t.add_root();
  const ProcessId a = t.create(root);
  const ProcessId b = t.create(a);
  t.drop(a, b);
  t.drop(root, a);
  replay_on_baseline(eng, sim, t.ops());
  EXPECT_TRUE(eng.removed(a));
  EXPECT_TRUE(eng.removed(b));
  // Exactly one weight-return control message per dropped/cascaded ref.
  EXPECT_EQ(net.stats().of(MessageKind::kWrcControl).sent, 2u);
}

TEST(Wrc, ThirdPartyForwardingNeedsNoControlMessage) {
  Simulator sim;
  Network net(sim, unit_net(9));
  WrcEngine eng(net);
  TraceBuilder t;
  const ProcessId root = t.add_root();
  const ProcessId a = t.create(root);
  const ProcessId b = t.create(root);
  t.link_third(root, a, b);  // root forwards its ref of a to b
  replay_on_baseline(eng, sim, t.ops());
  EXPECT_EQ(net.stats().of(MessageKind::kWrcControl).sent, 0u);

  // And the forwarded reference genuinely protects `a`.
  TraceBuilder t2;
  (void)t2;
  MutatorOp drop{MutatorOp::Kind::kDrop, root, a, {}};
  eng.apply(drop);
  sim.run();
  EXPECT_FALSE(eng.removed(a)) << "b still holds forwarded weight";
}

TEST(Wrc, LeaksDistributedCycles) {
  // The motivating failure of non-comprehensive schemes (§3).
  Simulator sim;
  Network net(sim, unit_net(10));
  WrcEngine eng(net);
  std::vector<ProcessId> elems;
  const TraceBuilder t = traces::ring_with_subcycles(6, &elems);
  replay_on_baseline(eng, sim, t.ops());
  EXPECT_EQ(eng.removed_count(), 0u) << "WRC must leak the cycle";
}

TEST(CrossCheck, OurAlgorithmMatchesTracingOnSameTrace) {
  // Same trace on our GGD and on the tracing baseline: identical final
  // garbage (cross-validation of comprehensiveness).
  std::vector<ProcessId> elems;
  const TraceBuilder t = traces::ring_with_subcycles(9, &elems);

  Scenario ours(Scenario::Config{.net = unit_net(11)});
  replay_on_scenario(ours, t.ops());
  ours.run_with_sweeps();

  Simulator sim;
  Network net(sim, unit_net(11));
  TracingCollector tracing(net);
  replay_on_baseline(tracing, sim, t.ops());
  tracing.run_cycle();
  sim.run();

  EXPECT_EQ(ours.removed().size(), tracing.removed_count());
  for (ProcessId e : elems) {
    EXPECT_TRUE(ours.removed().contains(e));
    EXPECT_TRUE(tracing.removed(e));
  }
}

}  // namespace
}  // namespace cgc
