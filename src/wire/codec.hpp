// Compact binary codec for the wire protocol.
//
// Every inter-site byte of the system is produced by an `Encoder` and
// consumed by a `Decoder`, so the traffic numbers reported by the benches
// are grounded in a real encoding rather than abstract size hints:
//   * unsigned integers are LEB128 varints (7 bits per byte, low first),
//   * timestamps pack the destruction marker into the varint's low bit,
//   * dependency vectors are delta-encoded: process ids are strictly
//     increasing, so each id after the first is stored as its (small)
//     difference from the previous one.
//
// The decoder is total: it never reads past the end of the buffer and
// never aborts on malformed input. Any underflow or non-canonical input
// trips the `ok()` flag, and all subsequent reads return zero values, so
// callers check once at the end (truncated-buffer rejection is tested).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/flat_map.hpp"
#include "common/scratch.hpp"
#include "common/types.hpp"
#include "vclock/dependency_vector.hpp"

namespace cgc::wire {

class Encoder {
 public:
  explicit Encoder(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  /// LEB128: 7 payload bits per byte, continuation in the high bit.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void boolean(bool b) { u8(b ? 1 : 0); }

  /// Destruction marker in the low bit, event index above it. Indexes are
  /// per-edge event counters, so the 63-bit ceiling is unreachable.
  void timestamp(Timestamp ts) {
    CGC_CHECK(ts.index() < (std::uint64_t{1} << 63));
    varint((ts.index() << 1) | (ts.destroyed() ? 1 : 0));
  }

  void process_id(ProcessId p) { varint(p.value()); }
  void site_id(SiteId s) { varint(s.value()); }
  void object_id(ObjectId o) { varint(o.value()); }

  /// Count, then entries in increasing process-id order: the first id raw,
  /// every next one as a positive delta from its predecessor.
  void dependency_vector(const DependencyVector& dv) {
    varint(dv.size());
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& [p, ts] : dv.entries()) {
      varint(first ? p.value() : p.value() - prev);
      prev = p.value();
      first = false;
      timestamp(ts);
    }
  }

  /// Same delta scheme for sorted id sets (any container iterating in
  /// increasing ProcessId order).
  template <typename SortedIdSet>
  void process_set(const SortedIdSet& s) {
    varint(s.size());
    std::uint64_t prev = 0;
    bool first = true;
    for (ProcessId p : s) {
      varint(first ? p.value() : p.value() - prev);
      prev = p.value();
      first = false;
    }
  }

  /// Unsorted id sequences (e.g. a DFS path) are stored verbatim.
  void process_seq(const std::vector<ProcessId>& v) {
    varint(v.size());
    for (ProcessId p : v) {
      process_id(p);
    }
  }

  template <typename SortedRowMap>
  void row_map(const SortedRowMap& rows) {
    varint(rows.size());
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& [p, row] : rows) {
      varint(first ? p.value() : p.value() - prev);
      prev = p.value();
      first = false;
      dependency_vector(row);
    }
  }

  /// Sorted (ProcessId -> u64) maps: delta-encoded keys, varint values
  /// (migration snapshots carry several per-slot counter maps).
  template <typename SortedU64Map>
  void u64_map(const SortedU64Map& m) {
    varint(m.size());
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& [p, v] : m) {
      varint(first ? p.value() : p.value() - prev);
      prev = p.value();
      first = false;
      varint(v);
    }
  }

  /// Columnar row batch for the delta row-relay: subject ids, revision
  /// stamps, per-row entry counts, entry ids, then ONE timestamp column
  /// for the whole batch, run-length encoded. Grouping like-typed values
  /// into columns is what makes the RLE bite — a batch of related rows is
  /// dominated by long runs of identical packed timestamps (mostly
  /// low-index live entries), which the per-row encoding interleaves with
  /// ids and re-pays for every row. Ids delta-encode exactly like
  /// row_map (strictly increasing at both levels, one canonical form).
  void row_batch(const FlatMap<ProcessId, DependencyVector>& rows,
                 const FlatMap<ProcessId, std::uint64_t>& revs) {
    CGC_CHECK(rows.size() == revs.size());
    varint(rows.size());
    // Column 1: subject ids (delta).
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& entry : rows) {
      varint(first ? entry.first.value() : entry.first.value() - prev);
      prev = entry.first.value();
      first = false;
    }
    // Column 2: revision stamps, aligned with column 1.
    auto rit = revs.begin();
    for (const auto& entry : rows) {
      CGC_CHECK(rit != revs.end() && rit->first == entry.first);
      varint(rit->second);
      ++rit;
    }
    // Column 3: per-row entry counts.
    for (const auto& entry : rows) {
      varint(entry.second.size());
    }
    // Column 4: entry ids, delta-encoded within each row.
    for (const auto& entry : rows) {
      std::uint64_t eprev = 0;
      bool efirst = true;
      for (const auto& e : entry.second.entries()) {
        varint(efirst ? e.first.value() : e.first.value() - eprev);
        eprev = e.first.value();
        efirst = false;
      }
    }
    // Column 5: every entry's packed timestamp, batch-wide, as maximal
    // (value, run-length) pairs.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
    for (const auto& entry : rows) {
      for (const auto& e : entry.second.entries()) {
        CGC_CHECK(e.second.index() < (std::uint64_t{1} << 63));
        const std::uint64_t packed =
            (e.second.index() << 1) | (e.second.destroyed() ? 1 : 0);
        if (!runs.empty() && runs.back().first == packed) {
          ++runs.back().second;
        } else {
          runs.emplace_back(packed, 1);
        }
      }
    }
    varint(runs.size());
    for (const auto& run : runs) {
      varint(run.first);
      varint(run.second);
    }
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t>& out_;
};

class Decoder {
 public:
  /// Why decoding failed. Truncation (the buffer ended mid-value) is kept
  /// distinguishable from malformed input (bytes that no encoder
  /// produces): a transport that frames its reads can treat the former as
  /// "wait for more bytes" and only the latter as a protocol violation.
  enum class Error : std::uint8_t { kNone, kTruncated, kMalformed };

  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Decoder(const std::vector<std::uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  [[nodiscard]] bool ok() const { return error_ == Error::kNone; }
  /// First failure's classification; once set it never changes (all
  /// subsequent reads return zero values without re-classifying).
  [[nodiscard]] Error error() const { return error_; }
  /// True when the whole buffer has been consumed (and nothing failed).
  [[nodiscard]] bool done() const { return ok() && pos_ == size_; }
  [[nodiscard]] std::size_t consumed() const { return pos_; }

  std::uint8_t u8() {
    if (pos_ >= size_) {
      return fail(Error::kTruncated);
    }
    return data_[pos_++];
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) {
        return fail(Error::kTruncated);  // buffer ended mid-varint
      }
      const std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        // Reject non-canonical encodings: an over-long form (final byte
        // contributing no bits) or a tenth byte shifting bits past 64.
        if (shift > 0 && b == 0) {
          return fail(Error::kMalformed);
        }
        if (shift == 63 && (b >> 1) != 0) {
          return fail(Error::kMalformed);  // value would exceed 64 bits
        }
        return v;
      }
    }
    // Ten continuation bytes: even an all-ones u64 terminates by the
    // tenth byte, so this prefix is not a valid 64-bit varint.
    return fail(Error::kMalformed);
  }

  /// Advances past `n` raw bytes (length-prefixed payloads).
  void skip(std::size_t n) {
    if (n > size_ - pos_) {
      fail(Error::kTruncated);
      return;
    }
    pos_ += n;
  }

  bool boolean() {
    const std::uint8_t b = u8();  // truncation latched by u8() itself
    if (ok() && b > 1) {
      fail(Error::kMalformed);
    }
    return b == 1;
  }

  Timestamp timestamp() {
    const std::uint64_t raw = varint();
    const std::uint64_t index = raw >> 1;
    return (raw & 1) ? Timestamp::destruction(index)
                     : Timestamp::creation(index);
  }

  ProcessId process_id() { return ProcessId{varint()}; }
  SiteId site_id() { return SiteId{varint()}; }
  ObjectId object_id() { return ObjectId{varint()}; }

  DependencyVector dependency_vector() {
    DependencyVector dv;
    const std::uint64_t n = varint();
    dv.reserve(capacity_hint(n));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      const std::uint64_t delta = varint();
      if (i > 0 && delta == 0) {
        // Ids must be strictly increasing: one canonical encoding.
        fail(Error::kMalformed);
        break;
      }
      prev = (i == 0) ? delta : prev + delta;
      const Timestamp ts = timestamp();
      if (ts == Timestamp{}) {
        if (ok()) {
          fail(Error::kMalformed);  // zero entries are never stored
        }
        break;
      }
      dv.set(ProcessId{prev}, ts);
    }
    // Two returns, not `ok() ? dv : T{}`: the conditional would
    // deep-copy the decoded value on every message.
    if (!ok()) {
      return {};
    }
    return dv;
  }

  FlatSet<ProcessId> process_set() {
    FlatSet<ProcessId> s;
    const std::uint64_t n = varint();
    s.reserve(capacity_hint(n));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      const std::uint64_t delta = varint();
      if (i > 0 && delta == 0) {
        fail(Error::kMalformed);
        break;
      }
      prev = (i == 0) ? delta : prev + delta;
      s.insert(ProcessId{prev});  // increasing ids: O(1) append
    }
    if (!ok()) {
      return {};
    }
    return s;
  }

  std::vector<ProcessId> process_seq() {
    std::vector<ProcessId> v;
    const std::uint64_t n = varint();
    // Each element costs at least one byte: cheap guard against a huge
    // count in a truncated buffer causing a huge allocation.
    if (n > size_ - pos_) {
      fail(Error::kTruncated);
      return {};
    }
    v.reserve(n);
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      v.push_back(process_id());
    }
    if (!ok()) {
      return {};
    }
    return v;
  }

  FlatMap<ProcessId, DependencyVector> row_map() {
    FlatMap<ProcessId, DependencyVector> rows;
    const std::uint64_t n = varint();
    rows.reserve(capacity_hint(n));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      const std::uint64_t delta = varint();
      if (i > 0 && delta == 0) {
        fail(Error::kMalformed);
        break;
      }
      prev = (i == 0) ? delta : prev + delta;
      rows[ProcessId{prev}] = dependency_vector();  // increasing: append
    }
    if (!ok()) {
      return {};
    }
    return rows;
  }

  /// Decodes a columnar row batch into aligned (rows, revs) maps. Total
  /// like everything else here: counts are guarded against the remaining
  /// buffer before allocating, ids must be strictly increasing at both
  /// levels, runs must be maximal (no two consecutive runs share a
  /// value), non-empty, non-zero (zero entries are never stored) and
  /// cover the batch's entry count exactly.
  void row_batch(FlatMap<ProcessId, DependencyVector>& rows,
                 FlatMap<ProcessId, std::uint64_t>& revs) {
    rows = {};
    revs = {};
    const std::uint64_t n = varint();
    if (ok() && n > size_ - pos_) {  // each subject id costs >= 1 byte
      fail(Error::kTruncated);
    }
    if (!ok()) {
      return;
    }
    // The batch is decoded column by column before any row can be
    // assembled; the columns are per-thread scratch, reused across calls.
    thread_local std::vector<std::uint64_t> ids;
    thread_local std::vector<std::uint64_t> rev_vals;
    thread_local std::vector<std::uint64_t> counts;
    thread_local std::vector<std::uint64_t> entry_ids;
    thread_local std::vector<std::uint64_t> packed;
    const ScratchUse use(ids, rev_vals, counts, entry_ids, packed);
    ids.reserve(n);
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      const std::uint64_t delta = varint();
      if (i > 0 && delta == 0) {
        fail(Error::kMalformed);
        break;
      }
      prev = (i == 0) ? delta : prev + delta;
      ids.push_back(prev);
    }
    rev_vals.reserve(n);
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      rev_vals.push_back(varint());
    }
    counts.reserve(n);
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      counts.push_back(varint());
      total += counts.back();
    }
    if (ok() && total > size_ - pos_) {  // each entry id costs >= 1 byte
      fail(Error::kTruncated);
    }
    if (!ok()) {
      return;
    }
    entry_ids.reserve(total);
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      std::uint64_t eprev = 0;
      for (std::uint64_t j = 0; ok() && j < counts[i]; ++j) {
        const std::uint64_t delta = varint();
        if (j > 0 && delta == 0) {
          fail(Error::kMalformed);
          break;
        }
        eprev = (j == 0) ? delta : eprev + delta;
        entry_ids.push_back(eprev);
      }
    }
    const std::uint64_t n_runs = varint();
    if (ok() && n_runs > size_ - pos_) {  // each run costs >= 2 bytes
      fail(Error::kTruncated);
    }
    packed.reserve(ok() ? total : 0);
    std::uint64_t prev_value = 0;
    for (std::uint64_t r = 0; ok() && r < n_runs; ++r) {
      const std::uint64_t value = varint();
      const std::uint64_t len = varint();
      if (!ok()) {
        break;
      }
      if (value == 0 || len == 0 || len > total - packed.size() ||
          (r > 0 && value == prev_value)) {
        fail(Error::kMalformed);
        break;
      }
      prev_value = value;
      packed.insert(packed.end(), len, value);
    }
    if (ok() && packed.size() != total) {
      fail(Error::kMalformed);
    }
    if (!ok()) {
      return;
    }
    rows.reserve(n);
    revs.reserve(n);
    std::size_t cursor = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      DependencyVector dv;
      dv.reserve(counts[i]);
      for (std::uint64_t j = 0; j < counts[i]; ++j) {
        const std::uint64_t raw = packed[cursor];
        const ProcessId q{entry_ids[cursor]};
        ++cursor;
        dv.set(q, (raw & 1) ? Timestamp::destruction(raw >> 1)
                            : Timestamp::creation(raw >> 1));
      }
      rows[ProcessId{ids[i]}] = std::move(dv);  // increasing: append
      revs[ProcessId{ids[i]}] = rev_vals[i];
    }
  }

  FlatMap<ProcessId, std::uint64_t> u64_map() {
    FlatMap<ProcessId, std::uint64_t> m;
    const std::uint64_t n = varint();
    m.reserve(capacity_hint(n));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; ok() && i < n; ++i) {
      const std::uint64_t delta = varint();
      if (i > 0 && delta == 0) {
        fail(Error::kMalformed);
        break;
      }
      prev = (i == 0) ? delta : prev + delta;
      m[ProcessId{prev}] = varint();  // increasing: append
    }
    if (!ok()) {
      return {};
    }
    return m;
  }

 private:
  /// Capacity to reserve for a decoded element count: every element costs
  /// at least one byte, so a count past the remaining buffer is truncated
  /// input and gets no more than the buffer could hold (the decode loop
  /// still classifies the error).
  [[nodiscard]] std::size_t capacity_hint(std::uint64_t n) const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(n, size_ - pos_));
  }

  std::uint64_t fail(Error reason) {
    if (error_ == Error::kNone) {
      error_ = reason;  // first failure wins: later reads return zeroes
    }
    return 0;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Error error_ = Error::kNone;
};

}  // namespace cgc::wire
