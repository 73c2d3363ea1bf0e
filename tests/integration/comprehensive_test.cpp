// T5 — comprehensiveness: distributed cycles of garbage, including cyclic
// structures with sub-cycles, are detected and collected without any
// global consensus, for every canonical shape and for random graphs.
#include <gtest/gtest.h>

#include "workload/builders.hpp"
#include "workload/scenario.hpp"

namespace cgc {
namespace {

Scenario::Config fault_free(std::uint64_t seed) {
  return Scenario::Config{
      .net = NetworkConfig{.min_latency = 1,
                           .max_latency = 4,
                           .drop_rate = 0,
                           .duplicate_rate = 0,
                           .seed = seed},
      .mode = LogKeepingMode::kRobust,
  };
}

class ShapeParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShapeParamTest, DoublyLinkedListCollectsCompletely) {
  const std::size_t k = GetParam();
  Scenario s(fault_free(k));
  const ProcessId root = s.add_root();
  const auto elems = build_doubly_linked_list(s, root, k);
  ASSERT_TRUE(s.run());

  s.drop_ref(root, elems[0]);
  ASSERT_TRUE(s.run());

  EXPECT_TRUE(s.safety_holds());
  EXPECT_TRUE(s.residual_garbage().empty())
      << s.residual_garbage().size() << " of " << k << " elements leaked";
  EXPECT_EQ(s.removed().size(), k);
}

TEST_P(ShapeParamTest, RingCollectsCompletely) {
  const std::size_t k = GetParam();
  Scenario s(fault_free(k));
  const ProcessId root = s.add_root();
  const auto elems = build_ring(s, root, k);
  ASSERT_TRUE(s.run());

  s.drop_ref(root, elems[0]);
  ASSERT_TRUE(s.run());

  EXPECT_TRUE(s.safety_holds());
  EXPECT_TRUE(s.residual_garbage().empty());
  EXPECT_EQ(s.removed().size(), k);
}

TEST_P(ShapeParamTest, RingWithSubcyclesCollectsCompletely) {
  const std::size_t k = GetParam();
  Scenario s(fault_free(k));
  const ProcessId root = s.add_root();
  const auto elems = build_ring_with_subcycles(s, root, k);
  ASSERT_TRUE(s.run());

  s.drop_ref(root, elems[0]);
  ASSERT_TRUE(s.run());

  EXPECT_TRUE(s.safety_holds());
  EXPECT_TRUE(s.residual_garbage().empty());
  EXPECT_EQ(s.removed().size(), k);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShapeParamTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40));

TEST(Comprehensive, TreeCollectsCompletely) {
  Scenario s(fault_free(7));
  const ProcessId root = s.add_root();
  const auto nodes = build_tree(s, root, /*branching=*/3, /*depth=*/4);
  ASSERT_TRUE(s.run());

  s.drop_ref(root, nodes[0]);
  ASSERT_TRUE(s.run());

  EXPECT_TRUE(s.safety_holds());
  EXPECT_TRUE(s.residual_garbage().empty());
  EXPECT_EQ(s.removed().size(), nodes.size());
}

TEST(Comprehensive, GraftedTailKeepsWholeDoublyLinkedList) {
  // Two doubly-linked lists; the tail of the right one is additionally
  // referenced from the left list. Dropping root -> right head collects
  // NOTHING: the back-links make every right element reachable through the
  // grafted tail (root -> left3 -> right3 -> right2 -> right1 -> right0).
  Scenario s(fault_free(11));
  const ProcessId root = s.add_root();
  const auto left = build_doubly_linked_list(s, root, 4);
  const auto right = build_doubly_linked_list(s, root, 4);
  s.send_own_ref(right[3], left[3]);  // edge left[3] -> right[3]
  ASSERT_TRUE(s.run());

  s.drop_ref(root, right[0]);
  ASSERT_TRUE(s.run());

  EXPECT_TRUE(s.safety_holds());
  EXPECT_TRUE(s.residual_garbage().empty());
  EXPECT_TRUE(s.removed().empty());
}

TEST(Comprehensive, PartialDisconnectionCollectsExclusivePrefix) {
  // Same graft, but the back-link right[3] -> right[2] is severed too, so
  // the exclusive prefix right[0..2] becomes garbage (a doubly-linked
  // sub-chain with internal cycles) while right[3] survives via left[3].
  Scenario s(fault_free(13));
  const ProcessId root = s.add_root();
  const auto left = build_doubly_linked_list(s, root, 4);
  const auto right = build_doubly_linked_list(s, root, 4);
  s.send_own_ref(right[3], left[3]);
  ASSERT_TRUE(s.run());

  s.drop_ref(root, right[0]);
  s.drop_ref(right[3], right[2]);
  ASSERT_TRUE(s.run());

  EXPECT_TRUE(s.safety_holds());
  EXPECT_TRUE(s.residual_garbage().empty());
  EXPECT_EQ(s.removed().size(), 3u);
  EXPECT_FALSE(s.engine().process(right[3]).removed());
  EXPECT_FALSE(s.engine().process(left[3]).removed());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(s.engine().process(right[i]).removed()) << i;
  }
}

class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphTest, RandomGraphFullDisconnection) {
  Rng rng(GetParam());
  Scenario s(fault_free(GetParam()));
  const ProcessId root = s.add_root();
  const auto nodes = build_random_graph(s, root, 30, 25, rng);
  ASSERT_TRUE(s.run());

  // Sever every edge the root holds: the whole graph becomes garbage.
  const FlatSet<ProcessId> held = s.refs_of(root);
  for (ProcessId t : held) {
    s.drop_ref(root, t);
  }
  ASSERT_TRUE(s.run());

  EXPECT_TRUE(s.safety_holds());
  EXPECT_TRUE(s.residual_garbage().empty())
      << s.residual_garbage().size() << " residual of " << nodes.size();
  EXPECT_EQ(s.removed().size(), nodes.size());
}

TEST_P(RandomGraphTest, RandomPartialDrops) {
  Rng rng(GetParam() * 7919 + 1);
  Scenario s(fault_free(GetParam()));
  const ProcessId root = s.add_root();
  build_random_graph(s, root, 25, 20, rng);
  ASSERT_TRUE(s.run());

  // Drop a random half of all held references across the graph.
  std::vector<std::pair<ProcessId, ProcessId>> drops;
  const auto live = s.reachable();
  for (ProcessId holder : live) {
    for (ProcessId target : s.refs_of(holder)) {
      if (rng.chance(0.5)) {
        drops.emplace_back(holder, target);
      }
    }
  }
  for (auto [holder, target] : drops) {
    if (s.holds(holder, target)) {
      s.drop_ref(holder, target);
    }
  }
  ASSERT_TRUE(s.run());

  // Safety is unconditional. Comprehensiveness after *partial* severance
  // is subject to the paper's unbounded-detection-latency caveat (§5):
  // garbage whose circulated causal history is entangled with still-live
  // processes through since-severed edges can linger.
  EXPECT_TRUE(s.safety_holds());

  // Fully disconnecting the graph must then flush everything: destruction
  // markers dominate equal-or-lower creation indexes, so the lingering
  // entries are masked and every object is eventually collected.
  for (ProcessId t : FlatSet<ProcessId>(s.refs_of(root))) {
    s.drop_ref(root, t);
  }
  ASSERT_TRUE(s.run());
  EXPECT_TRUE(s.safety_holds());
  EXPECT_TRUE(s.residual_garbage().empty())
      << s.residual_garbage().size() << " residual after full disconnection";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Comprehensive, PaperExactModeCollectsCanonicalShapes) {
  for (std::size_t k : {2, 5, 12}) {
    Scenario::Config cfg = fault_free(k);
    cfg.mode = LogKeepingMode::kPaperExact;
    Scenario s(cfg);
    const ProcessId root = s.add_root();
    const auto elems = build_ring_with_subcycles(s, root, k);
    ASSERT_TRUE(s.run());
    s.drop_ref(root, elems[0]);
    ASSERT_TRUE(s.run());
    EXPECT_TRUE(s.safety_holds()) << "k=" << k;
    EXPECT_TRUE(s.residual_garbage().empty()) << "k=" << k;
  }
}

}  // namespace
}  // namespace cgc
