#include "vclock/row_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

TEST(RowTable, AbsentRowsReadEmptyWithoutInterning) {
  RowTable t;
  const RowTable& ct = t;
  EXPECT_FALSE(ct.contains(P(9)));
  EXPECT_TRUE(ct.row(P(9)).empty());
  EXPECT_FALSE(ct.row(P(9)).exists());
  EXPECT_FALSE(ct.contains(P(9))) << "const access does not create";
  EXPECT_TRUE(t.row(P(9)).empty());
  EXPECT_TRUE(ct.contains(P(9))) << "mutable access interns the row";
}

TEST(RowTable, MutableRowAccessCreatesAndEraseRemoves) {
  RowTable t;
  t.row(P(3)).set(P(4), Timestamp::creation(1));
  EXPECT_TRUE(t.contains(P(3)));
  EXPECT_EQ(std::as_const(t).row(P(3)).get(P(4)), Timestamp::creation(1));
  t.erase(P(3));
  EXPECT_FALSE(t.contains(P(3)));
  EXPECT_EQ(t.entry_count(), 0u);
}

TEST(RowTable, EntryCountSpansAllRows) {
  RowTable t;
  t.row(P(2)).set(P(1), Timestamp::creation(1));
  t.row(P(2)).set(P(2), Timestamp::creation(2));
  t.row(P(3)).set(P(4), Timestamp::creation(1));
  EXPECT_EQ(t.entry_count(), 3u);
}

// The table must actually return memory when rows die: populate a batch
// of rows, erase them all, and require the shared columns to shrink back.
// Forcing compact() keeps the assertion deterministic (the automatic
// trigger fires on thresholds, not on every erase).
TEST(RowTable, ErasedRowsReleaseColumnStorage) {
  RowTable t;
  t.row(P(0)).increment(P(0));  // a row that must survive the purge
  constexpr std::uint64_t kRows = 128;
  constexpr std::uint64_t kEntries = 8;
  for (std::uint64_t q = 1; q <= kRows; ++q) {
    auto row = t.row(P(q));
    for (std::uint64_t e = 1; e <= kEntries; ++e) {
      row.set(P(1000 + e), Timestamp::creation(e));
    }
  }
  const std::size_t peak_bytes = t.column_bytes();
  ASSERT_GE(t.column_slots(), kRows * kEntries);
  for (std::uint64_t q = 1; q <= kRows; ++q) {
    t.erase(P(q));
  }
  t.compact();
  EXPECT_EQ(t.dead_slots(), 0u);
  EXPECT_EQ(t.column_slots(), 1u);  // only the surviving row's entry left
  EXPECT_LT(t.column_bytes(), peak_bytes / 4);
  EXPECT_EQ(t.size(), 1u);
}

// Erase-heavy churn crosses the automatic compaction threshold without any
// explicit compact() call: dead slots must never exceed the live columns.
TEST(RowTable, AutomaticCompactionBoundsDeadSlots) {
  RowTable t;
  for (std::uint64_t round = 0; round < 16; ++round) {
    for (std::uint64_t q = 1; q <= 64; ++q) {
      auto row = t.row(P(round * 64 + q));
      row.set(P(7), Timestamp::creation(round + 1));
      row.set(P(8), Timestamp::creation(round + 2));
    }
    for (std::uint64_t q = 1; q <= 64; ++q) {
      t.erase(P(round * 64 + q));
    }
  }
  EXPECT_LE(t.dead_slots(), t.column_slots());
  EXPECT_LT(t.column_slots(), 16u * 64u * 2u);  // churn did not accrete
}

// A row's revision stamp belongs to the row: it stays put while compaction
// slides the columns and while shrink_to_fit trims the bookkeeping.
TEST(RowTable, StampsSurviveCompactionAndShrink) {
  RowTable t;
  const RowTable& ct = t;
  for (std::uint64_t q = 1; q <= 96; ++q) {
    auto row = t.row(P(q));
    row.set(P(1000 + q), Timestamp::creation(q));
    row.set_stamp(10 * q);
  }
  for (std::uint64_t q = 1; q <= 96; q += 2) {
    t.erase(P(q));
  }
  t.compact();
  ASSERT_EQ(t.dead_slots(), 0u);
  for (std::uint64_t q = 2; q <= 96; q += 2) {
    EXPECT_EQ(ct.row(P(q)).stamp(), 10 * q) << q;
  }
  t.shrink_to_fit();
  for (std::uint64_t q = 2; q <= 96; q += 2) {
    EXPECT_EQ(ct.row(P(q)).stamp(), 10 * q) << q;
    EXPECT_EQ(ct.row(P(q)).get(P(1000 + q)), Timestamp::creation(q));
  }
  EXPECT_EQ(ct.row(P(1)).stamp(), 0u) << "an absent row reads unstamped";
}

// An erased row's slot is reused by the next new row, which must not
// inherit the old stamp: a recreated row reads 0 until stamped afresh.
TEST(RowTable, RecreatedRowReadsUnstamped) {
  RowTable t;
  const RowTable& ct = t;
  t.row(P(3)).set(P(4), Timestamp::creation(1));
  t.row(P(3)).set_stamp(7);
  t.row(P(5)).set(P(4), Timestamp::creation(1));  // past the stamp column
  EXPECT_EQ(ct.row(P(5)).stamp(), 0u);
  t.erase(P(3));
  t.row(P(3)).set(P(4), Timestamp::creation(2));
  EXPECT_EQ(ct.row(P(3)).stamp(), 0u);
  t.row(P(3)).set_stamp(9);
  EXPECT_EQ(ct.row(P(3)).stamp(), 9u);
}

TEST(RowTable, ClearAndReleaseResetStamps) {
  RowTable t;
  const RowTable& ct = t;
  const std::size_t empty_bytes = t.footprint_bytes();
  t.row(P(1)).set(P(2), Timestamp::creation(1));
  t.row(P(1)).set_stamp(4);
  t.clear();
  t.row(P(1)).set(P(2), Timestamp::creation(1));
  EXPECT_EQ(ct.row(P(1)).stamp(), 0u);
  t.row(P(1)).set_stamp(5);
  t.release();
  EXPECT_EQ(t.footprint_bytes(), empty_bytes);
  t.row(P(1)).set(P(2), Timestamp::creation(1));
  EXPECT_EQ(ct.row(P(1)).stamp(), 0u);
}

// The stamp column is allocated by the first set_stamp, never by rows or
// reads alone: a table that never stamps pays nothing for it.
TEST(RowTable, UnstampedTableHoldsNoStampColumn) {
  RowTable t;
  for (std::uint64_t q = 1; q <= 64; ++q) {
    t.row(P(q)).set(P(1000), Timestamp::creation(q));
  }
  const std::size_t unstamped = t.footprint_bytes();
  for (std::uint64_t q = 1; q <= 64; ++q) {
    EXPECT_EQ(std::as_const(t).row(P(q)).stamp(), 0u);
  }
  EXPECT_EQ(t.footprint_bytes(), unstamped);
  t.row(P(64)).set_stamp(1);
  EXPECT_GE(t.footprint_bytes(), unstamped + 64 * sizeof(std::uint64_t));
}

// release_stamps drops the column a table will never read again; its
// rows, and the table's other bookkeeping, stay as they were.
TEST(RowTable, ReleasedStampsFreeTheColumnAndKeepTheRows) {
  RowTable t;
  const RowTable& ct = t;
  for (std::uint64_t q = 1; q <= 64; ++q) {
    t.row(P(q)).set(P(1000), Timestamp::creation(q));
  }
  const std::size_t unstamped = t.footprint_bytes();
  for (std::uint64_t q = 1; q <= 64; ++q) {
    t.row(P(q)).set_stamp(q);
  }
  EXPECT_GE(t.stamp_bytes(), 64 * sizeof(std::uint64_t));
  t.release_stamps();
  EXPECT_EQ(t.stamp_bytes(), 0u);
  EXPECT_EQ(t.footprint_bytes(), unstamped);
  for (std::uint64_t q = 1; q <= 64; ++q) {
    EXPECT_EQ(ct.row(P(q)).stamp(), 0u);
    EXPECT_EQ(ct.row(P(q)).get(P(1000)), Timestamp::creation(q));
  }
  t.row(P(3)).set_stamp(9);
  EXPECT_EQ(ct.row(P(3)).stamp(), 9u);
}

// ---- span policy: a row pays for its entries, not for slack -------------

DependencyVector entries_from(std::uint64_t first, std::uint64_t n) {
  DependencyVector v;
  for (std::uint64_t q = first; q < first + n; ++q) {
    v.set(P(q), Timestamp::creation(q));
  }
  return v;
}

// A row written whole (assigned, or merged into while empty) gets a first
// span of exactly its size: most overlay and history rows are written
// once, with one or two entries, and never grow.
TEST(RowTable, RowsBuiltWholeHoldExactlyTheirEntries) {
  RowTable t;
  t.row(P(1)) = entries_from(10, 1);
  t.row(P(2)) = entries_from(10, 5);
  (void)t.row(P(3)).merge(entries_from(20, 1));
  (void)t.row(P(4)).merge(entries_from(20, 3));
  EXPECT_EQ(t.entry_count(), 10u);
  EXPECT_EQ(t.column_slots(), t.entry_count());
  EXPECT_EQ(t.dead_slots(), 0u);
  // Re-assigning a row within its span moves nothing.
  t.row(P(2)) = entries_from(30, 4);
  EXPECT_EQ(t.column_slots(), 10u);
  EXPECT_EQ(std::as_const(t).row(P(2)).to_dv(), entries_from(30, 4));
}

// A row grown entry by entry starts at 4 slots and doubles each time it
// relocates, so a long row costs amortized O(1) copies per entry.
TEST(RowTable, RowsGrownByEntryStartAtFourSlotsAndDouble) {
  RowTable t;
  auto row = t.row(P(1));
  row.set(P(100), Timestamp::creation(1));
  EXPECT_EQ(t.column_slots(), 4u);
  for (std::uint64_t q = 101; q < 104; ++q) {
    row.set(P(q), Timestamp::creation(1));
  }
  EXPECT_EQ(t.column_slots(), 4u);
  row.set(P(104), Timestamp::creation(1));  // relocates to a span of 8
  EXPECT_EQ(t.column_slots(), 4u + 8u);
  EXPECT_EQ(t.dead_slots(), 4u);
  for (std::uint64_t q = 105; q < 109; ++q) {
    row.set(P(q), Timestamp::creation(1));
  }
  EXPECT_EQ(t.column_slots(), 4u + 8u + 16u);
  EXPECT_EQ(t.dead_slots(), 12u);
  EXPECT_EQ(t.entry_count(), 9u);

  // A row that began whole doubles too once it outgrows its exact span.
  t.row(P(2)) = entries_from(10, 3);
  const std::size_t before = t.column_slots();
  t.row(P(2)).set(P(50), Timestamp::creation(1));
  EXPECT_EQ(t.column_slots(), before + 6u);
  (void)t.row(P(2)).merge(entries_from(60, 3));  // 7 entries: 6 -> 12
  EXPECT_EQ(t.column_slots(), before + 6u + 12u);
  EXPECT_EQ(std::as_const(t).row(P(2)).size(), 7u);
}

// compact() tight-packs every span whatever policy sized it, and the next
// insert into a packed row grows it geometrically again.
TEST(RowTable, CompactTightPacksEverySpan) {
  RowTable t;
  for (std::uint64_t q = 1; q <= 8; ++q) {
    auto row = t.row(P(q));
    for (std::uint64_t e = 0; e < q; ++e) {
      row.set(P(100 + e), Timestamp::creation(q));
    }
  }
  t.row(P(9)) = entries_from(10, 5);
  ASSERT_GT(t.column_slots(), t.entry_count());
  t.compact();
  EXPECT_EQ(t.column_slots(), t.entry_count());
  EXPECT_EQ(t.dead_slots(), 0u);
  for (std::uint64_t q = 1; q <= 8; ++q) {
    EXPECT_EQ(std::as_const(t).row(P(q)).size(), q);
  }
  t.row(P(3)).set(P(1), Timestamp::creation(1));  // 3 -> a span of 6
  EXPECT_EQ(t.column_slots(), t.entry_count() - 1 + 6);
}

// Copies and moves carry rows, stamps and free slots; a copy holds no
// slack beyond the source's columns.
TEST(RowTable, CopiesAndMovesKeepRowsStampsAndFreeSlots) {
  Pool pool;
  RowTable t(&pool);
  for (std::uint64_t q = 1; q <= 12; ++q) {
    t.row(P(q)) = entries_from(100, q % 4 + 1);
    t.row(P(q)).set_stamp(q);
  }
  t.erase(P(5));
  t.erase(P(6));
  RowTable copy = t;
  RowTable assigned;
  assigned = copy;
  for (const RowTable* c : {&copy, &assigned}) {
    EXPECT_EQ(c->entry_count(), t.entry_count());
    EXPECT_EQ(c->column_slots(), t.column_slots());
    for (std::uint64_t q = 1; q <= 12; ++q) {
      EXPECT_EQ(c->row(P(q)).exists(), q != 5 && q != 6) << q;
      EXPECT_EQ(c->row(P(q)).stamp(), q == 5 || q == 6 ? 0 : q) << q;
      EXPECT_EQ(c->row(P(q)).to_dv(), t.row(P(q)).to_dv()) << q;
    }
  }
  // The freed slots are reused, newest first, and read unstamped.
  copy.row(P(40)).set(P(1), Timestamp::creation(1));
  EXPECT_EQ(std::as_const(copy).row(P(40)).stamp(), 0u);
  RowTable moved = std::move(copy);
  EXPECT_EQ(moved.entry_count(), t.entry_count() + 1);
  EXPECT_EQ(std::as_const(moved).row(P(12)).stamp(), 12u);
  EXPECT_EQ(copy.footprint_bytes(), 0u);  // NOLINT(bugprone-use-after-move)
  RowTable heap;  // another pool: a move becomes a copy
  heap = std::move(moved);
  EXPECT_EQ(std::as_const(heap).row(P(12)).stamp(), 12u);
  EXPECT_EQ(heap.entry_count(), t.entry_count() + 1);
}

// A row renders over a fixed universe the way the paper's Fig. 8 boxes
// do, absent entries as 0.
TEST(RowTable, FixedUniverseRendering) {
  RowTable t;
  t.row(P(2)).set(P(1), Timestamp::destruction(1));
  t.row(P(2)).set(P(2), Timestamp::creation(3));
  const RowTable& ct = t;
  EXPECT_EQ(ct.row(P(2)).str({P(1), P(2)}), "(E1, 3)");
  EXPECT_EQ(ct.row(P(1)).str({P(1), P(2)}), "(0, 0)");
}

}  // namespace
}  // namespace cgc
