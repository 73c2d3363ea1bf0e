// Differential property tests for the dense-core containers: FlatMap,
// FlatSet and DenseMap run the same randomized operation sequences as the
// std::map/std::set they replaced and must agree after every step —
// contents, lookup results, and (for the sorted containers) iteration
// order, which is wire-observable.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/dense_map.hpp"
#include "common/flat_map.hpp"
#include "common/interner.hpp"
#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "common/types.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

TEST(FlatMap, DifferentialAgainstStdMapUnderRandomOps) {
  Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    FlatMap<std::uint64_t, std::uint64_t> flat;
    std::map<std::uint64_t, std::uint64_t> ref;
    // Key range 0..24 forces plenty of hits, misses, and overwrites; the
    // size crosses the linear-scan threshold (8) both ways.
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t key = rng.below(25);
      switch (rng.below(4)) {
        case 0: {  // operator[] insert-or-overwrite
          const std::uint64_t val = rng.next();
          flat[key] = val;
          ref[key] = val;
          break;
        }
        case 1: {  // emplace (no overwrite)
          const std::uint64_t val = rng.next();
          const bool fi = flat.emplace(key, val).second;
          const bool ri = ref.emplace(key, val).second;
          EXPECT_EQ(fi, ri);
          break;
        }
        case 2:  // erase
          EXPECT_EQ(flat.erase(key), ref.erase(key));
          break;
        default:  // lookup
          EXPECT_EQ(flat.contains(key), ref.contains(key));
          if (ref.contains(key)) {
            EXPECT_EQ(flat.find(key)->second, ref.find(key)->second);
          } else {
            EXPECT_TRUE(flat.find(key) == flat.end());
          }
          break;
      }
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_TRUE(flat == ref) << "same contents in same (sorted) order";
    }
  }
}

TEST(FlatMap, MergeWithMatchesPerKeyCombine) {
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    FlatMap<std::uint64_t, std::uint64_t> a, b;
    for (int i = 0; i < 12; ++i) {
      if (rng.chance(0.7)) {
        a[rng.below(16)] = 1 + rng.below(100);
      }
      if (rng.chance(0.7)) {
        b[rng.below(16)] = 1 + rng.below(100);
      }
    }
    std::map<std::uint64_t, std::uint64_t> expect;
    for (const auto& [k, v] : a) {
      expect[k] = std::max(expect[k], v);
    }
    for (const auto& [k, v] : b) {
      expect[k] = std::max(expect[k], v);
    }
    a.merge_with(b, [](std::uint64_t x, std::uint64_t y) {
      return std::max(x, y);
    });
    EXPECT_TRUE(a == expect);
  }
}

TEST(FlatMap, MergeWithSelfAppliesCombineToEveryValueInPlace) {
  // Aliasing contract: m.merge_with(m, f) == apply f(v, v) per entry.
  // The differential reference is the same combine applied to a std::map
  // copy — and an idempotent combine (max) must leave the map unchanged,
  // which is what DependencyVector::merge relies on.
  Rng rng(909);
  for (int round = 0; round < 100; ++round) {
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (int i = 0; i < 12; ++i) {
      if (rng.chance(0.8)) {
        m[rng.below(16)] = 1 + rng.below(100);
      }
    }
    std::map<std::uint64_t, std::uint64_t> expect(m.begin(), m.end());
    for (auto& [k, v] : expect) {
      v = v + v;
    }
    const FlatMap<std::uint64_t, std::uint64_t> before = m;
    m.merge_with(m, [](std::uint64_t x, std::uint64_t y) { return x + y; });
    EXPECT_TRUE(m == expect) << "self-merge must combine each value with "
                                "itself, no duplicates, no reorder";

    FlatMap<std::uint64_t, std::uint64_t> idem = before;
    idem.merge_with(idem, [](std::uint64_t x, std::uint64_t y) {
      return std::max(x, y);
    });
    EXPECT_TRUE(idem == before)
        << "idempotent combine: self-merge is the identity";
  }
}

TEST(FlatSet, DifferentialAgainstStdSetUnderRandomOps) {
  Rng rng(4711);
  for (int round = 0; round < 50; ++round) {
    FlatSet<ProcessId> flat;
    std::set<ProcessId> ref;
    for (int op = 0; op < 400; ++op) {
      const ProcessId key = P(rng.below(25));
      switch (rng.below(3)) {
        case 0:
          EXPECT_EQ(flat.insert(key).second, ref.insert(key).second);
          break;
        case 1:
          EXPECT_EQ(flat.erase(key), ref.erase(key));
          break;
        default:
          EXPECT_EQ(flat.contains(key), ref.contains(key));
          break;
      }
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_TRUE(flat == ref) << "same elements in same (sorted) order";
    }
  }
}

TEST(ScratchUse, ClearsOnEntryAndReleasesOnlyPastTheRetainCap) {
  std::vector<std::uint64_t> small(10, 7);
  FlatSet<ProcessId> big;
  {
    const ScratchUse use(small, big);
    EXPECT_TRUE(small.empty()) << "entry clears every container";
    for (std::uint64_t i = 0; i <= kScratchRetain; ++i) {
      big.insert(P(i));
    }
    small.assign(100, 3);
  }
  EXPECT_GE(small.capacity(), 100u)
      << "capacity within the cap carries over to the next use";
  EXPECT_EQ(big.capacity(), 0u)
      << "a container that outgrew the cap hands its block back";
}

TEST(DenseMap, DifferentialAgainstStdMapUnderRandomOps) {
  Rng rng(31337);
  for (int round = 0; round < 20; ++round) {
    DenseMap<ProcessId, std::uint64_t> dense;
    std::map<ProcessId, std::uint64_t> ref;
    // Sparse 64-bit keys over a small range plus erase churn exercises
    // tombstones and the rehash-in-place path.
    for (int op = 0; op < 2000; ++op) {
      const ProcessId key = P(rng.below(64) * 0x9e3779b9ULL);
      switch (rng.below(4)) {
        case 0: {
          const std::uint64_t val = rng.next();
          dense[key] = val;
          ref[key] = val;
          break;
        }
        case 1: {
          const std::uint64_t val = rng.next();
          EXPECT_EQ(dense.emplace(key, val).second,
                    ref.emplace(key, val).second);
          break;
        }
        case 2:
          EXPECT_EQ(dense.erase(key), ref.erase(key) > 0);
          break;
        default:
          EXPECT_EQ(dense.contains(key), ref.contains(key));
          if (ref.contains(key)) {
            ASSERT_NE(dense.find(key), nullptr);
            EXPECT_EQ(*dense.find(key), ref.at(key));
          } else {
            EXPECT_EQ(dense.find(key), nullptr);
          }
          break;
      }
      ASSERT_EQ(dense.size(), ref.size());
    }
    // Full-content check via unordered visitation.
    std::map<ProcessId, std::uint64_t> seen;
    dense.for_each([&](ProcessId k, std::uint64_t v) { seen[k] = v; });
    EXPECT_EQ(seen, ref);
  }
}

TEST(IdInterner, AssignsDenseStableIndices) {
  IdInterner<ProcessId> interner;
  EXPECT_EQ(interner.index_of(P(100)), IdInterner<ProcessId>::kNone);
  EXPECT_EQ(interner.intern(P(100)), 0u);
  EXPECT_EQ(interner.intern(P(7)), 1u);
  EXPECT_EQ(interner.intern(P(100)), 0u) << "re-intern returns the same slot";
  EXPECT_EQ(interner.index_of(P(7)), 1u);
  EXPECT_EQ(interner.id_of(0), P(100));
  EXPECT_EQ(interner.id_of(1), P(7));
  EXPECT_EQ(interner.size(), 2u);

  // Dense indices stay stable across arbitrary growth (vectors keyed by
  // them must never be invalidated logically).
  for (std::uint64_t i = 0; i < 1000; ++i) {
    interner.intern(P(1'000'000 + i));
  }
  EXPECT_EQ(interner.index_of(P(100)), 0u);
  EXPECT_EQ(interner.index_of(P(7)), 1u);
  EXPECT_EQ(interner.size(), 1002u);
}

}  // namespace
}  // namespace cgc
