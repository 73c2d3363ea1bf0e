#include "vclock/dv_log.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

TEST(DvLog, SelfRowAndOwnTimestamp) {
  DvLog log(P(2));
  EXPECT_EQ(log.self(), P(2));
  EXPECT_EQ(log.own_timestamp(), Timestamp{});
  EXPECT_EQ(log.new_local_event(), Timestamp::creation(1));
  EXPECT_EQ(log.new_local_event(), Timestamp::creation(2));
  EXPECT_EQ(log.own_timestamp(), Timestamp::creation(2));
}

TEST(DvLog, AbsentRowsReadEmpty) {
  DvLog log(P(2));
  EXPECT_FALSE(log.has_row(P(9)));
  EXPECT_TRUE(log.row(P(9)).empty());  // const access does not create
  const DvLog& clog = log;
  EXPECT_TRUE(clog.row(P(9)).empty());
}

TEST(DvLog, MutableRowAccessCreates) {
  DvLog log(P(2));
  log.row(P(3)).set(P(4), Timestamp::creation(1));
  EXPECT_TRUE(log.has_row(P(3)));
  EXPECT_EQ(log.row(P(3)).get(P(4)), Timestamp::creation(1));
}

TEST(DvLog, EraseRow) {
  DvLog log(P(2));
  log.row(P(3)).set(P(4), Timestamp::creation(1));
  log.erase_row(P(3));
  EXPECT_FALSE(log.has_row(P(3)));
}

TEST(DvLog, EntryCountSpansAllRows) {
  DvLog log(P(2));
  log.self_row().set(P(1), Timestamp::creation(1));
  log.self_row().set(P(2), Timestamp::creation(2));
  log.row(P(3)).set(P(4), Timestamp::creation(1));
  EXPECT_EQ(log.entry_count(), 3u);
}

// The log must actually return memory when rows die: populate a batch of
// rows, erase them all, and require the shared columns to shrink back.
// Forcing compact() keeps the assertion deterministic (the automatic
// trigger fires on thresholds, not on every erase).
TEST(DvLog, ErasedRowsReleaseColumnStorage) {
  DvLog log(P(0));
  log.new_local_event();  // intern the self row: it must survive the purge
  constexpr std::uint64_t kRows = 128;
  constexpr std::uint64_t kEntries = 8;
  for (std::uint64_t q = 1; q <= kRows; ++q) {
    auto row = log.row(P(q));
    for (std::uint64_t e = 1; e <= kEntries; ++e) {
      row.set(P(1000 + e), Timestamp::creation(e));
    }
  }
  const std::size_t peak_slots = log.column_slots();
  const std::size_t peak_bytes = log.column_bytes();
  ASSERT_GE(peak_slots, kRows * kEntries);
  for (std::uint64_t q = 1; q <= kRows; ++q) {
    log.erase_row(P(q));
  }
  log.compact();
  EXPECT_EQ(log.dead_slots(), 0u);
  EXPECT_EQ(log.column_slots(), 1u);  // only the self row's own entry left
  EXPECT_LT(log.column_bytes(), peak_bytes / 4);
  EXPECT_EQ(log.row_count(), 1u);
  (void)peak_slots;
}

// Erase-heavy churn crosses the automatic compaction threshold without any
// explicit compact() call: dead slots must never exceed the live columns.
TEST(DvLog, AutomaticCompactionBoundsDeadSlots) {
  DvLog log(P(0));
  for (std::uint64_t round = 0; round < 16; ++round) {
    for (std::uint64_t q = 1; q <= 64; ++q) {
      auto row = log.row(P(round * 64 + q));
      row.set(P(7), Timestamp::creation(round + 1));
      row.set(P(8), Timestamp::creation(round + 2));
    }
    for (std::uint64_t q = 1; q <= 64; ++q) {
      log.erase_row(P(round * 64 + q));
    }
  }
  EXPECT_LE(log.dead_slots(), log.column_slots());
  EXPECT_LT(log.column_slots(), 16u * 64u * 2u);  // churn did not accrete
}

// A row's revision stamp belongs to the row: it stays put while compaction
// slides the columns and while shrink_to_fit trims the bookkeeping.
TEST(DvLog, StampsSurviveCompactionAndShrink) {
  DvLog log(P(0));
  const DvLog& clog = log;
  for (std::uint64_t q = 1; q <= 96; ++q) {
    auto row = log.row(P(q));
    row.set(P(1000 + q), Timestamp::creation(q));
    row.set_stamp(10 * q);
  }
  for (std::uint64_t q = 1; q <= 96; q += 2) {
    log.erase_row(P(q));
  }
  log.compact();
  ASSERT_EQ(log.dead_slots(), 0u);
  for (std::uint64_t q = 2; q <= 96; q += 2) {
    EXPECT_EQ(clog.row(P(q)).stamp(), 10 * q) << q;
  }
  log.shrink_to_fit();
  for (std::uint64_t q = 2; q <= 96; q += 2) {
    EXPECT_EQ(clog.row(P(q)).stamp(), 10 * q) << q;
    EXPECT_EQ(clog.row(P(q)).get(P(1000 + q)), Timestamp::creation(q));
  }
  EXPECT_EQ(clog.row(P(1)).stamp(), 0u) << "an absent row reads unstamped";
}

// An erased row's slot is reused by the next new row, which must not
// inherit the old stamp: a recreated row reads 0 until stamped afresh.
TEST(DvLog, RecreatedRowReadsUnstamped) {
  DvLog log(P(0));
  const DvLog& clog = log;
  log.row(P(3)).set(P(4), Timestamp::creation(1));
  log.row(P(3)).set_stamp(7);
  log.row(P(5)).set(P(4), Timestamp::creation(1));  // past the stamp column
  EXPECT_EQ(clog.row(P(5)).stamp(), 0u);
  log.erase_row(P(3));
  log.row(P(3)).set(P(4), Timestamp::creation(2));
  EXPECT_EQ(clog.row(P(3)).stamp(), 0u);
  log.row(P(3)).set_stamp(9);
  EXPECT_EQ(clog.row(P(3)).stamp(), 9u);
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

TEST(DvLog, FixedUniverseRendering) {
  DvLog log(P(2));
  log.self_row().set(P(1), Timestamp::destruction(1));
  log.self_row().set(P(2), Timestamp::creation(3));
  const std::string s = log.str({P(1), P(2)});
  EXPECT_NE(s.find("DV[2] = (E1, 3)"), std::string::npos);
  EXPECT_NE(s.find("DV[1] = (0, 0)"), std::string::npos);
}

}  // namespace
}  // namespace cgc
