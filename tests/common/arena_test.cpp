// Arena / Pool / PoolAllocator: the memory-diet substrate.
//
// Three angles:
//   * differential — the same allocate/free/content sequence driven
//     through a PoolAllocator-backed container and a std::allocator one
//     must observe identical values (the allocator is invisible to the
//     program);
//   * safety — recycled memory is poisoned: under ASan the shadow is
//     checked directly, elsewhere the 0xFE fill byte is asserted;
//   * mechanics — the size-class ladder, free-list reuse, reset epochs,
//     and the RowTable built on top (compaction, erase-shrink, merge
//     equivalence against DependencyVector).
#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "vclock/dependency_vector.hpp"
#include "vclock/row_table.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

// -- size-class ladder ------------------------------------------------------

TEST(Pool, SizeClassLadder) {
  // {2^k, 1.5·2^k} ladder: 16, 24, 32, 48, 64, 96, 128, ...
  EXPECT_EQ(Pool::size_class(1).second, 16u);
  EXPECT_EQ(Pool::size_class(16).second, 16u);
  EXPECT_EQ(Pool::size_class(17).second, 24u);
  EXPECT_EQ(Pool::size_class(24).second, 24u);
  EXPECT_EQ(Pool::size_class(25).second, 32u);
  EXPECT_EQ(Pool::size_class(32).second, 32u);
  EXPECT_EQ(Pool::size_class(33).second, 48u);
  EXPECT_EQ(Pool::size_class(48).second, 48u);
  EXPECT_EQ(Pool::size_class(49).second, 64u);
  EXPECT_EQ(Pool::size_class(96).second, 96u);
  EXPECT_EQ(Pool::size_class(97).second, 128u);
  // Rounded size always covers the request and never doubles it (beyond
  // the 16-byte floor).
  for (std::size_t n = 1; n <= (std::size_t{1} << 16); n += 37) {
    const auto [cls, size] = Pool::size_class(n);
    EXPECT_GE(size, n);
    if (n > 16) {
      EXPECT_LT(size, 2 * n);
    }
    // Same class ⇒ same size, monotone in the request.
    EXPECT_EQ(Pool::size_class(size).second, size);
    (void)cls;
  }
}

TEST(Pool, FreeListReusesSameClass) {
  Pool pool;
  void* a = pool.allocate(40);  // class size 48
  pool.deallocate(a, 40);
  void* b = pool.allocate(44);  // also 48: must come off the free list
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.reuse_count(), 1u);
  pool.deallocate(b, 44);
  void* c = pool.allocate(60);  // class 64: different list, fresh memory
  EXPECT_NE(a, c);
  pool.deallocate(c, 60);
}

TEST(Pool, ResetBumpsEpochAndDropsFreeLists) {
  Pool pool;
  void* a = pool.allocate(32);
  pool.deallocate(a, 32);
  const std::uint64_t epoch = pool.epoch();
  pool.reset();
  EXPECT_EQ(pool.epoch(), epoch + 1);
  EXPECT_EQ(pool.bytes_live(), 0u);
  // Allocation still works after reset and recycles the retained block.
  void* b = pool.allocate(32);
  EXPECT_NE(b, nullptr);
  pool.deallocate(b, 32);
}

// -- differential vs std::allocator ----------------------------------------

// One deterministic command tape (push / pop / grow / shrink / write)
// replayed against a pooled vector and a heap vector: every intermediate
// observation must match. The allocator must be semantically invisible.
TEST(Pool, DifferentialAgainstStdAllocator) {
  Pool pool;
  std::vector<std::uint64_t, PoolAllocator<std::uint64_t>> pooled{
      PoolAllocator<std::uint64_t>(&pool)};
  std::vector<std::uint64_t> heap;
  Rng rng(20260808);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 55) {
      const std::uint64_t v = rng.below(1u << 30);
      pooled.push_back(v);
      heap.push_back(v);
    } else if (op < 80) {
      if (!heap.empty()) {
        pooled.pop_back();
        heap.pop_back();
      }
    } else if (op < 90) {
      if (!heap.empty()) {
        const std::size_t i = rng.below(heap.size());
        const std::uint64_t v = rng.below(1u << 30);
        pooled[i] = v;
        heap[i] = v;
      }
    } else if (op < 95) {
      const std::size_t n = heap.size() + rng.below(64);
      pooled.resize(n, 7);
      heap.resize(n, 7);
    } else {
      pooled.shrink_to_fit();
      heap.shrink_to_fit();
    }
    ASSERT_EQ(pooled.size(), heap.size());
    if (!heap.empty()) {
      const std::size_t i = rng.below(heap.size());
      ASSERT_EQ(pooled[i], heap[i]);
    }
  }
  ASSERT_TRUE(std::equal(pooled.begin(), pooled.end(), heap.begin()));
}

// Same tape, node-based container: deque exercises many small same-class
// chunks and steady free-list traffic.
TEST(Pool, DifferentialDequeChurn) {
  Pool pool;
  std::deque<std::uint64_t, PoolAllocator<std::uint64_t>> pooled{
      PoolAllocator<std::uint64_t>(&pool)};
  std::deque<std::uint64_t> heap;
  Rng rng(97);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.below(4);
    const std::uint64_t v = rng.below(1u << 20);
    if (op == 0) {
      pooled.push_back(v);
      heap.push_back(v);
    } else if (op == 1) {
      pooled.push_front(v);
      heap.push_front(v);
    } else if (op == 2 && !heap.empty()) {
      pooled.pop_back();
      heap.pop_back();
    } else if (op == 3 && !heap.empty()) {
      pooled.pop_front();
      heap.pop_front();
    }
    ASSERT_EQ(pooled.size(), heap.size());
  }
  EXPECT_TRUE(std::equal(pooled.begin(), pooled.end(), heap.begin()));
}

TEST(PoolAllocator, NullPoolDegradesToHeap) {
  std::vector<int, PoolAllocator<int>> v;  // default: null pool
  v.assign({1, 2, 3});
  EXPECT_EQ(v[2], 3);
  PoolAllocator<int> a(nullptr);
  PoolAllocator<int> b(nullptr);
  Pool pool;
  PoolAllocator<int> c(&pool);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(PoolAllocator, CopyAssignKeepsDestinationAllocator) {
  // Propagation traits are all off: assigning a pooled container from a
  // heap one must copy elements, not transplant the allocator.
  Pool pool;
  std::vector<int, PoolAllocator<int>> pooled{PoolAllocator<int>(&pool)};
  std::vector<int, PoolAllocator<int>> heap_backed;
  heap_backed.assign({4, 5, 6});
  pooled = heap_backed;
  EXPECT_EQ(pooled.get_allocator().pool(), &pool);
  pooled = std::move(heap_backed);
  EXPECT_EQ(pooled.get_allocator().pool(), &pool);
  EXPECT_EQ(pooled.size(), 3u);
  EXPECT_EQ(pooled[0], 4);
}

// -- reuse-after-reset poisoning -------------------------------------------

TEST(Pool, DeallocatedChunkIsPoisoned) {
  Pool pool;
  auto* p = static_cast<unsigned char*>(pool.allocate(48));
  std::memset(p, 0xAB, 48);
  pool.deallocate(p, 48);
#ifdef CGC_HAS_ASAN
  // The free-list link (first 8 bytes) stays addressable; the payload
  // beyond it must be poisoned shadow.
  EXPECT_NE(__asan_address_is_poisoned(p + 16), 0);
  EXPECT_NE(__asan_address_is_poisoned(p + 47), 0);
#else
  // Non-ASan builds fill with the poison byte (past the intrusive link).
  for (std::size_t i = sizeof(void*); i < 48; ++i) {
    EXPECT_EQ(p[i], kArenaPoisonByte) << "offset " << i;
  }
#endif
  // Reallocating the chunk unpoisons it and hands back writable memory.
  auto* q = static_cast<unsigned char*>(pool.allocate(48));
  ASSERT_EQ(p, q);
#ifdef CGC_HAS_ASAN
  EXPECT_EQ(__asan_address_is_poisoned(q + 16), 0);
#endif
  std::memset(q, 0xCD, 48);
  pool.deallocate(q, 48);
}

TEST(Pool, ResetPoisonsRetainedBlocks) {
  Pool pool;
  auto* p = static_cast<unsigned char*>(pool.allocate(64));
  std::memset(p, 0x11, 64);
  pool.reset();
#ifdef CGC_HAS_ASAN
  EXPECT_NE(__asan_address_is_poisoned(p), 0);
  EXPECT_NE(__asan_address_is_poisoned(p + 63), 0);
#else
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(p[i], kArenaPoisonByte) << "offset " << i;
  }
#endif
  // The retained block is live again for fresh allocations (recycled, not
  // returned to the OS) — and the fresh chunk reads/writes cleanly.
  auto* q = static_cast<unsigned char*>(pool.allocate(64));
  ASSERT_EQ(p, q);  // block 0 recycled: same storage, new epoch
  std::memset(q, 0x22, 64);
  EXPECT_EQ(q[63], 0x22);
}

TEST(Arena, NewBlockIsHandedOutWritableAndItsTailStaysPoisoned) {
  Arena arena;
  // The second request does not fit the first block: a new one is minted
  // (and left untouched outside ASan).
  auto* p = static_cast<unsigned char*>(arena.allocate(Arena::kMinBlockBytes));
  auto* q = static_cast<unsigned char*>(arena.allocate(256));
  ASSERT_EQ(arena.block_count(), 2u);
  std::memset(p, 0x33, Arena::kMinBlockBytes);
  std::memset(q, 0x44, 256);
  EXPECT_EQ(p[Arena::kMinBlockBytes - 1], 0x33);
  EXPECT_EQ(q[255], 0x44);
#ifdef CGC_HAS_ASAN
  // Only the bytes handed out are addressable; the rest of the new block
  // is poisoned shadow until allocate() reaches it.
  EXPECT_EQ(__asan_address_is_poisoned(q + 255), 0);
  EXPECT_NE(__asan_address_is_poisoned(q + 256), 0);
#endif
}

TEST(Arena, GeometricGrowthAndReset) {
  Arena arena;
  std::size_t total = 0;
  while (total < (std::size_t{8} << 20)) {  // force several block mints
    (void)arena.allocate(4096);
    total += 4096;
  }
  EXPECT_GT(arena.block_count(), 1u);
  const std::size_t reserved = arena.bytes_reserved();
  arena.reset();
  // Blocks are retained across reset (recycled, not freed).
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.bytes_used(), 0u);
  // Post-reset allocations walk the retained blocks before minting.
  for (int i = 0; i < 64; ++i) {
    (void)arena.allocate(1024);
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

// -- RowTable on the pool ---------------------------------------------------

// Differential: a RowTable and a map of DependencyVectors driven by the
// same operation tape must agree on every row at every probe.
TEST(RowTable, DifferentialAgainstDependencyVector) {
  Pool pool;
  RowTable table(&pool);
  FlatMap<ProcessId, DependencyVector> model;
  Rng rng(4242);
  for (int step = 0; step < 8000; ++step) {
    const ProcessId q = P(1 + rng.below(24));
    const ProcessId p = P(1 + rng.below(16));
    const std::uint64_t op = rng.below(100);
    if (op < 45) {
      const Timestamp ts = rng.below(2) == 0
                               ? Timestamp::creation(1 + rng.below(50))
                               : Timestamp::destruction(1 + rng.below(50));
      table.row(q).set(p, ts);
      model[q].set(p, ts);
    } else if (op < 65) {
      const Timestamp ts = Timestamp::creation(1 + rng.below(50));
      table.row(q).merge_entry(p, ts);
      model[q].merge_entry(p, ts);
    } else if (op < 80) {
      DependencyVector other;
      for (std::uint64_t i = 0; i < rng.below(6); ++i) {
        other.set(P(1 + rng.below(16)),
                  Timestamp::creation(1 + rng.below(50)));
      }
      table.row(q).merge(other);
      model[q].merge(other);
    } else if (op < 90) {
      table.erase(q);
      model.erase(q);
    } else {
      table.row(q).increment(p);
      model[q].increment(p);
    }
    // Probe one random subject plus the mutated one.
    for (ProcessId probe : {q, P(1 + rng.below(24))}) {
      auto it = model.find(probe);
      ASSERT_EQ(table.contains(probe), it != model.end());
      if (it != model.end()) {
        const DependencyVector got = table.row(probe);
        ASSERT_TRUE(got == it->second)
            << "row " << probe.str() << ": " << got.str() << " vs "
            << it->second.str();
      }
    }
  }
  // Full sweep, both directions, in iteration order.
  ASSERT_EQ(table.size(), model.size());
  auto mit = model.begin();
  for (const auto& [q, row] : table.rows()) {
    ASSERT_EQ(q, mit->first);  // increasing-id iteration contract
    const DependencyVector got = row;
    ASSERT_TRUE(got == mit->second);
    ++mit;
  }
}

TEST(RowTable, CompactionPreservesContentAndReclaimsDeadSlots) {
  RowTable table;
  for (std::uint64_t q = 1; q <= 100; ++q) {
    auto row = table.row(P(q));
    for (std::uint64_t e = 0; e < 5; ++e) {
      row.set(P(200 + e), Timestamp::creation(q + e));
    }
  }
  for (std::uint64_t q = 1; q <= 100; q += 2) {
    table.erase(P(q));  // kill every odd row
  }
  table.compact();
  EXPECT_EQ(table.dead_slots(), 0u);
  EXPECT_EQ(table.column_slots(), 50u * 5u);
  for (std::uint64_t q = 2; q <= 100; q += 2) {
    const auto row = std::as_const(table).row(P(q));
    ASSERT_TRUE(row.exists());
    for (std::uint64_t e = 0; e < 5; ++e) {
      ASSERT_EQ(row.get(P(200 + e)), Timestamp::creation(q + e));
    }
  }
}

TEST(RowTable, PooledTableSurvivesHeavyChurnUnderPoolReuse) {
  // Rows allocated, erased, re-allocated: column storage cycles through
  // the pool's free lists; contents must stay exact throughout.
  Pool pool;
  RowTable table(&pool);
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t q = 1; q <= 40; ++q) {
      auto row = table.row(P(q));
      row.set(P(500), Timestamp::creation(round * 100 + q));
    }
    for (std::uint64_t q = 1; q <= 40; ++q) {
      ASSERT_EQ(std::as_const(table).row(P(q)).get(P(500)),
                Timestamp::creation(round * 100 + q));
      table.erase(P(q));
    }
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_GT(pool.reuse_count(), 0u);
}

TEST(PoolArray, GrowsLikeAVectorAndShrinksExactly) {
  Pool pool;
  PoolArray<std::uint64_t> a;
  for (std::uint32_t i = 0; i < 5; ++i) {
    a.resize(&pool, i + 1);
    a[i] = i;
  }
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.capacity(), 8u);  // 1, 2, 4, 8
  a.resize(&pool, 9);           // max(9, 2 * 5)
  EXPECT_EQ(a.capacity(), 10u);
  EXPECT_EQ(a[8], 0u) << "new elements are value-initialized";
  EXPECT_EQ(a[4], 4u);
  a.resize(&pool, 3);
  a.shrink_to_fit(&pool);
  EXPECT_EQ(a.capacity(), 3u);
  EXPECT_EQ(a[2], 2u);
  PoolArray<std::uint64_t> b;
  b.assign(&pool, a);
  EXPECT_EQ(b.capacity(), 3u);
  EXPECT_EQ(b[1], 1u);
  a.release(&pool);
  b.release(&pool);
  EXPECT_EQ(pool.bytes_live(), 0u);
}

// A pooled table hands back every byte it took — columns, spans, stamps —
// through growth, copies, moves, compaction, shrink and stamp release: a
// block freed under a size other than the one it was allocated with would
// leave bytes_live off zero.
TEST(RowTable, PooledTablesReturnEveryByte) {
  Pool pool;
  {
    RowTable t(&pool);
    Rng rng(77);
    for (int step = 0; step < 3000; ++step) {
      const ProcessId q = P(1 + rng.below(40));
      if (rng.below(10) == 0) {
        t.erase(q);
      } else if (rng.below(3) == 0) {
        DependencyVector v;
        v.set(P(1 + rng.below(30)), Timestamp::creation(1 + rng.below(9)));
        t.row(q) = v;
      } else {
        t.row(q).set(P(1 + rng.below(30)), Timestamp::creation(step + 1));
      }
      if (rng.below(5) == 0) {
        t.row(q).set_stamp(static_cast<std::uint64_t>(step) + 1);
      }
      if (step % 700 == 0) {
        RowTable copy = t;
        RowTable moved = std::move(copy);
        moved.shrink_to_fit();
        t = moved;
      }
    }
    t.compact();
    t.shrink_to_fit();
    t.release_stamps();
    t.row(P(3)).set_stamp(1);
    EXPECT_GT(pool.bytes_live(), 0u);
  }
  EXPECT_EQ(pool.bytes_live(), 0u);
}

}  // namespace
}  // namespace cgc
