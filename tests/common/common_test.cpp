#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace cgc {
namespace {

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_convertible_v<SiteId, ObjectId>);
  static_assert(!std::is_convertible_v<ObjectId, ProcessId>);
}

TEST(StrongId, DefaultIsInvalid) {
  ProcessId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.str(), "<invalid>");
}

TEST(StrongId, OrderingAndEquality) {
  EXPECT_LT(ProcessId{1}, ProcessId{2});
  EXPECT_EQ(ProcessId{3}, ProcessId{3});
  EXPECT_NE(ProcessId{3}, ProcessId{4});
}

TEST(StrongId, HashSpreadsSequentialIds) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<ProcessId>{}(ProcessId{i}));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(1);
  Rng fork = a.fork();
  // The fork and the parent should not produce the identical sequence.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next() == fork.next() ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace cgc
