// SoA columnar storage for keyed dependency-vector rows.
//
// The detector keeps many maps of ProcessId → DependencyVector: the
// two-dimensional log's rows, a process's certified replica rows, its
// uncertified history overlay, its on-behalf forwarding rows. Stored
// naively (FlatMap of DependencyVector) every row owns its own heap
// block: 24 bytes per entry (padded key + 16-byte Timestamp) plus a
// malloc header and slack per row. At 100k processes that bookkeeping
// IS the footprint.
//
// RowTable stores all rows of one table in two shared columns — a
// ProcessId column and a packed-timestamp column (index<<1 | destroyed,
// 8 bytes instead of 16) — with a per-row (offset, len, cap) span. Cost
// per entry drops from 24+ bytes across ~R heap blocks to a flat 16
// bytes across 2, and the columns can live in a caller-supplied Pool so
// a whole process's tables share bulk-owned memory. The table holds that
// Pool* once, not once per column (PoolArray), because a process keeps
// four tables and there are tens of thousands of processes.
//
// A row's first span is exactly its size when the row is built whole
// (assigned, or merged into while empty): most rows are written once —
// an overlay or a history row per reply — and a fixed first span would
// be mostly slack. A row grown entry by entry starts at 4 slots; any
// relocation doubles the span, so growth stays amortized. Erasing a row marks
// its span dead; when dead slots pass a threshold the columns are
// compacted in place (spans moved down in increasing-offset order), so
// the table actually shrinks — unlike the free-slot recycling it
// replaces, which pinned every row's high-water block forever.
//
// A row may carry a revision stamp (RowRef::set_stamp; 0: never stamped),
// created and erased with the row, in a slot-indexed column that grows on
// the first set_stamp: a table that never stamps pays nothing for it.
//
// Rows are reached through proxies: RowRef (mutable) and RowView
// (read-only) mirror DependencyVector's get/set/merge/entries surface
// and convert implicitly to a materialized DependencyVector where a
// wire message or snapshot needs an owning copy. Iteration — both
// across rows (rows(), increasing ProcessId) and within a row
// (entries(), increasing ProcessId) — preserves exactly the orders the
// delta-encoded wire format depends on; compaction only relocates
// bytes, so the refactor stays wire-passive by construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/assert.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "vclock/dependency_vector.hpp"
#include "vclock/timestamp.hpp"

namespace cgc {

class RowTable {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  explicit RowTable(Pool* pool = nullptr) : pool_(pool) {}

  /// A copy shares the source's pool and holds no slack beyond the
  /// source's column slots; assignment keeps this table's own pool (as a
  /// pooled std::vector's non-propagating allocator did).
  RowTable(const RowTable& o) : pool_(o.pool_) { copy_contents(o); }
  RowTable(RowTable&& o) noexcept
      : index_(std::move(o.index_)),
        pool_(o.pool_),
        spans_(std::move(o.spans_)),
        stamps_(std::exchange(o.stamps_, nullptr)),
        ids_(std::move(o.ids_)),
        ts_(std::move(o.ts_)),
        free_head_(std::exchange(o.free_head_, kNoSlot)),
        dead_(std::exchange(o.dead_, 0)),
        total_entries_(std::exchange(o.total_entries_, 0)) {}
  RowTable& operator=(const RowTable& o) {
    if (this != &o) {
      release();
      copy_contents(o);
    }
    return *this;
  }
  RowTable& operator=(RowTable&& o) noexcept {
    if (this == &o) {
      return *this;
    }
    if (pool_ != o.pool_) {
      return *this = std::as_const(o);
    }
    release();
    index_ = std::move(o.index_);
    spans_ = std::move(o.spans_);
    stamps_ = std::exchange(o.stamps_, nullptr);
    ids_ = std::move(o.ids_);
    ts_ = std::move(o.ts_);
    free_head_ = std::exchange(o.free_head_, kNoSlot);
    dead_ = std::exchange(o.dead_, 0);
    total_entries_ = std::exchange(o.total_entries_, 0);
    return *this;
  }
  ~RowTable() { release(); }

  // -- packed timestamps ----------------------------------------------------

  [[nodiscard]] static constexpr std::uint64_t pack(Timestamp t) {
    return (t.index() << 1) | (t.destroyed() ? 1u : 0u);
  }
  [[nodiscard]] static constexpr Timestamp unpack(std::uint64_t v) {
    return (v & 1) != 0 ? Timestamp::destruction(v >> 1)
                        : Timestamp::creation(v >> 1);
  }
  /// Timestamp::merge on packed values: the index occupies the high bits,
  /// so a plain max resolves unequal indexes; at equal index the
  /// destruction bits OR together.
  [[nodiscard]] static constexpr std::uint64_t pack_merge(std::uint64_t a,
                                                          std::uint64_t b) {
    return (a >> 1) == (b >> 1) ? (a | b) : (a > b ? a : b);
  }

  // -- row proxies ----------------------------------------------------------

  /// Within-row entry iteration, yielding (ProcessId, Timestamp) pairs by
  /// value in increasing ProcessId order.
  class EntryIterator {
   public:
    EntryIterator(const RowTable* t, std::uint32_t pos) : t_(t), pos_(pos) {}
    [[nodiscard]] std::pair<ProcessId, Timestamp> operator*() const {
      return {t_->ids_[pos_], unpack(t_->ts_[pos_])};
    }
    EntryIterator& operator++() {
      ++pos_;
      return *this;
    }
    [[nodiscard]] bool operator!=(const EntryIterator& o) const {
      return pos_ != o.pos_;
    }
    [[nodiscard]] bool operator==(const EntryIterator& o) const {
      return pos_ == o.pos_;
    }

   private:
    const RowTable* t_;
    std::uint32_t pos_;
  };

  /// Read-only row proxy. A default / absent view reads as the empty row
  /// (every entry 0) — exists() tells present-but-empty from absent.
  class RowView {
   public:
    RowView() = default;
    RowView(const RowTable* t, std::uint32_t slot) : t_(t), slot_(slot) {}

    [[nodiscard]] bool exists() const { return slot_ != kNoSlot; }
    [[nodiscard]] std::size_t size() const {
      return exists() ? t_->spans_[slot_].len : 0;
    }
    [[nodiscard]] bool empty() const { return size() == 0; }

    /// The row's revision stamp (RowRef::set_stamp); 0 for a row never
    /// stamped since it was created, and for an absent row.
    [[nodiscard]] std::uint64_t stamp() const {
      return exists() && t_->stamps_ != nullptr ? t_->stamps_[slot_] : 0;
    }

    [[nodiscard]] Timestamp get(ProcessId p) const {
      if (!exists()) {
        return Timestamp{};
      }
      const std::uint32_t pos = t_->find_pos(slot_, p);
      return pos == kNotFound ? Timestamp{} : unpack(t_->ts_[pos]);
    }

    [[nodiscard]] EntryIterator begin() const {
      if (!exists()) {
        return EntryIterator(nullptr, 0);
      }
      return EntryIterator(t_, t_->spans_[slot_].off);
    }
    [[nodiscard]] EntryIterator end() const {
      if (!exists()) {
        return EntryIterator(nullptr, 0);
      }
      const Span& s = t_->spans_[slot_];
      return EntryIterator(t_, s.off + s.len);
    }
    /// DependencyVector-shaped access for generic code.
    [[nodiscard]] RowView entries() const { return *this; }

    /// The row's raw column span: ids()[i] pairs with packed()[i] (a
    /// pack()ed timestamp) for i < size(), in increasing id order — what a
    /// merge-join reads without unpacking every entry. Valid until the
    /// table is next mutated; null for an absent row.
    [[nodiscard]] const ProcessId* ids() const {
      return exists() ? t_->ids_.data() + t_->spans_[slot_].off : nullptr;
    }
    [[nodiscard]] const std::uint64_t* packed() const {
      return exists() ? t_->ts_.data() + t_->spans_[slot_].off : nullptr;
    }

    [[nodiscard]] DependencyVector to_dv() const {
      DependencyVector dv;
      dv.reserve(size());
      for (const auto& [p, ts] : *this) {
        dv.set(p, ts);
      }
      return dv;
    }
    // NOLINTNEXTLINE(google-explicit-constructor): drop-in for sites that
    // copied a `const DependencyVector&` into a message or snapshot.
    operator DependencyVector() const { return to_dv(); }

    /// Sparse rendering, same format as DependencyVector::str().
    [[nodiscard]] std::string str() const {
      std::ostringstream ss;
      ss << '{';
      bool first = true;
      for (const auto& [p, ts] : *this) {
        if (!first) {
          ss << ", ";
        }
        first = false;
        ss << p.str() << ':' << ts.str();
      }
      ss << '}';
      return ss.str();
    }
    /// Fixed-universe rendering, same format as DependencyVector's.
    [[nodiscard]] std::string str(const std::vector<ProcessId>& universe) const {
      std::ostringstream ss;
      ss << '(';
      bool first = true;
      for (ProcessId p : universe) {
        if (!first) {
          ss << ", ";
        }
        first = false;
        ss << get(p).str();
      }
      ss << ')';
      return ss.str();
    }

   private:
    const RowTable* t_ = nullptr;
    std::uint32_t slot_ = kNoSlot;
  };

  /// Mutable row proxy. Unlike a reference into a map of rows, the
  /// handle stays valid across interning of other rows (slots are stable;
  /// only erasing THIS row invalidates it).
  class RowRef {
   public:
    RowRef(RowTable* t, std::uint32_t slot) : t_(t), slot_(slot) {}

    [[nodiscard]] RowView view() const { return RowView(t_, slot_); }
    [[nodiscard]] std::size_t size() const { return t_->spans_[slot_].len; }
    [[nodiscard]] bool empty() const { return size() == 0; }

    [[nodiscard]] Timestamp get(ProcessId p) const { return view().get(p); }

    /// Content writes leave the stamp alone: the owner stamps the rows
    /// whose changes it versions.
    void set_stamp(std::uint64_t stamp) {
      if (t_->stamps_ == nullptr) {
        t_->stamps_ = StampArray::alloc_block(t_->pool_, t_->spans_.capacity());
        std::fill_n(t_->stamps_, t_->spans_.capacity(), std::uint64_t{0});
      }
      t_->stamps_[slot_] = stamp;
    }

    /// Overwrites the entry for `p`; storing 0 erases it (DependencyVector
    /// semantics).
    void set(ProcessId p, Timestamp ts) { t_->set_entry(slot_, p, ts); }

    void merge_entry(ProcessId p, Timestamp ts) {
      set(p, Timestamp::merge(get(p), ts));
    }

    /// Component-wise merge; one backward two-pointer sweep, in place.
    /// Returns whether any entry changed.
    bool merge(const DependencyVector& other) {
      return t_->merge_row(slot_, other.entries());
    }

    Timestamp increment(ProcessId p) {
      const Timestamp next = Timestamp::creation(get(p).index() + 1);
      set(p, next);
      return next;
    }

    /// Replaces the row's whole content.
    RowRef& operator=(const DependencyVector& dv) {
      t_->assign_row(slot_, dv.entries());
      return *this;
    }
    RowRef& operator=(const RowRef&) = delete;  // ambiguous: use view()/=dv

    [[nodiscard]] EntryIterator begin() const { return view().begin(); }
    [[nodiscard]] EntryIterator end() const { return view().end(); }
    [[nodiscard]] RowView entries() const { return view(); }

    [[nodiscard]] DependencyVector to_dv() const { return view().to_dv(); }
    // NOLINTNEXTLINE(google-explicit-constructor)
    operator DependencyVector() const { return to_dv(); }

    [[nodiscard]] std::string str() const { return view().str(); }
    [[nodiscard]] std::string str(const std::vector<ProcessId>& u) const {
      return view().str(u);
    }

   private:
    RowTable* t_;
    std::uint32_t slot_;
  };

  // -- table operations -----------------------------------------------------

  /// Mutable access, interning an empty row if absent (the log's
  /// intern-on-access contract — wire-observable via snapshots, so kept).
  [[nodiscard]] RowRef row(ProcessId q) {
    auto [it, inserted] = index_.emplace(q, 0u);
    if (inserted) {
      it->second = new_slot();
    }
    return RowRef(this, it->second);
  }

  /// Read-only access; absent rows read as empty (exists() == false).
  [[nodiscard]] RowView row(ProcessId q) const {
    auto it = index_.find(q);
    return it == index_.end() ? RowView(this, kNoSlot)
                              : RowView(this, it->second);
  }

  [[nodiscard]] bool contains(ProcessId q) const { return index_.contains(q); }

  void erase(ProcessId q) {
    auto it = index_.find(q);
    if (it == index_.end()) {
      return;
    }
    release_slot(it->second);
    index_.erase(q);
    maybe_compact();
  }

  /// Drops every row; the columns keep their capacity. A slot made
  /// afterwards reads unstamped.
  void clear() {
    index_.clear();
    spans_.clear();
    ids_.clear();
    ts_.clear();
    free_head_ = kNoSlot;
    dead_ = 0;
    total_entries_ = 0;
  }

  /// clear() that returns every byte to the allocator — how a tombstone
  /// sheds a table it will never read again.
  void release() {
    index_.release();
    release_stamps();
    spans_.release(pool_);
    ids_.release(pool_);
    ts_.release(pool_);
    free_head_ = kNoSlot;
    dead_ = 0;
    total_entries_ = 0;
  }

  /// Drops the stamp column and returns its bytes: every row reads
  /// unstamped until its next set_stamp. For a table whose stamps will
  /// never be read again.
  void release_stamps() {
    StampArray::free_block(pool_, std::exchange(stamps_, nullptr),
                           spans_.capacity());
  }

  /// Compacts the columns AND trims the span and index bookkeeping to
  /// size — the tight-pack applied to state that must stay readable (a
  /// tombstone's wire-live remainder) but will mutate rarely if ever.
  void shrink_to_fit() {
    compact();
    set_slot_capacity(spans_.size());
    index_.shrink_to_fit();
  }

  /// Ordered view over (ProcessId, RowView) pairs, increasing ProcessId.
  class RowsView {
   public:
    class Iterator {
     public:
      using Index = FlatMap<ProcessId, std::uint32_t>::const_iterator;
      Iterator(Index it, const RowTable* t) : it_(it), t_(t) {}
      [[nodiscard]] std::pair<ProcessId, RowView> operator*() const {
        return {it_->first, RowView(t_, it_->second)};
      }
      Iterator& operator++() {
        ++it_;
        return *this;
      }
      [[nodiscard]] bool operator!=(const Iterator& o) const {
        return it_ != o.it_;
      }

     private:
      Index it_;
      const RowTable* t_;
    };

    explicit RowsView(const RowTable* t) : t_(t) {}
    [[nodiscard]] Iterator begin() const {
      return Iterator(t_->index_.begin(), t_);
    }
    [[nodiscard]] Iterator end() const {
      return Iterator(t_->index_.end(), t_);
    }
    [[nodiscard]] std::size_t size() const { return t_->index_.size(); }

   private:
    const RowTable* t_;
  };

  [[nodiscard]] RowsView rows() const { return RowsView(this); }

  /// Every row materialized into an owning map, increasing ProcessId.
  [[nodiscard]] FlatMap<ProcessId, DependencyVector> to_map() const {
    FlatMap<ProcessId, DependencyVector> out;
    for (const auto& [q, row] : rows()) {
      out.emplace(q, row);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }

  /// Total live entries across all rows (the paper's T6 space metric).
  [[nodiscard]] std::size_t entry_count() const { return total_entries_; }

  // -- footprint introspection (tests, metrics) -----------------------------

  /// Column slots currently held, live + dead + per-row slack.
  [[nodiscard]] std::size_t column_slots() const { return ids_.size(); }
  /// Slots owned by no live row (reclaimed by the next compaction).
  [[nodiscard]] std::size_t dead_slots() const { return dead_; }
  /// Actual bytes the two columns occupy right now.
  [[nodiscard]] std::size_t column_bytes() const {
    return ids_.capacity() * sizeof(ProcessId) +
           ts_.capacity() * sizeof(std::uint64_t);
  }
  /// Bytes the stamp column occupies (0 for a table that never stamped).
  [[nodiscard]] std::size_t stamp_bytes() const {
    return stamps_ == nullptr ? 0
                              : spans_.capacity() * sizeof(std::uint64_t);
  }
  /// Every heap byte this table holds: columns plus span/index/stamp
  /// bookkeeping. The RowTable object itself is its owner's to count.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return column_bytes() + spans_.capacity() * sizeof(Span) +
           stamp_bytes() +
           index_.capacity() * sizeof(std::pair<ProcessId, std::uint32_t>);
  }

  /// Slides every live span down over the dead gaps, in increasing-offset
  /// order, then trims the columns. Runs automatically once dead slots
  /// pass a threshold; public so tests can force it deterministically.
  void compact() {
    // Live slots in increasing current offset: moves are always leftward
    // into already-vacated space, so the copy is safe in place.
    std::vector<std::uint32_t> order;
    order.reserve(index_.size());
    for (const auto& [q, slot] : index_) {
      (void)q;
      order.push_back(slot);
    }
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return spans_[a].off < spans_[b].off;
              });
    std::uint32_t write = 0;
    for (std::uint32_t slot : order) {
      Span& s = spans_[slot];
      if (s.off != write) {
        std::copy(ids_.begin() + s.off, ids_.begin() + s.off + s.len,
                  ids_.begin() + write);
        std::copy(ts_.begin() + s.off, ts_.begin() + s.off + s.len,
                  ts_.begin() + write);
      }
      s.off = write;
      s.cap = s.len;  // tight pack; the next insert re-grows geometrically
      write += s.len;
    }
    ids_.resize(pool_, write);
    ts_.resize(pool_, write);
    ids_.shrink_to_fit(pool_);
    ts_.shrink_to_fit(pool_);
    dead_ = 0;
  }

 private:
  friend class RowView;
  friend class RowRef;

  /// A row's region of the columns. A free slot (len and cap 0) keeps
  /// the next free slot in `off`: the free list threads through spans_.
  struct Span {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  using StampArray = PoolArray<std::uint64_t>;

  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};
  /// Mirrors FlatMap's linear-scan cutoff: rows are usually tiny.
  static constexpr std::uint32_t kLinearScanMax = 8;
  /// First span of a row grown entry by entry (set_entry).
  static constexpr std::uint32_t kFirstSpan = 4;
  /// Compaction trigger: at least this many dead slots AND dead ≥ half of
  /// the columns. Amortizes the O(live) slide against real savings.
  static constexpr std::uint32_t kCompactMinDead = 64;

  [[nodiscard]] std::uint32_t find_pos(std::uint32_t slot, ProcessId p) const {
    const Span& s = spans_[slot];
    const std::uint32_t lo = s.off;
    const std::uint32_t hi = s.off + s.len;
    if (s.len <= kLinearScanMax) {
      for (std::uint32_t i = lo; i < hi; ++i) {
        if (ids_[i] == p) {
          return i;
        }
        if (p < ids_[i]) {
          return kNotFound;
        }
      }
      return kNotFound;
    }
    const ProcessId* first = ids_.data() + lo;
    const ProcessId* it = branchless_lower_bound(
        first, s.len, [p](ProcessId id) { return id < p; });
    if (it != first + s.len && *it == p) {
      return static_cast<std::uint32_t>(it - ids_.data());
    }
    return kNotFound;
  }

  /// First position in the span whose id is >= p (insertion point).
  [[nodiscard]] std::uint32_t lower_pos(std::uint32_t slot, ProcessId p) const {
    const Span& s = spans_[slot];
    auto it = std::lower_bound(ids_.begin() + s.off,
                               ids_.begin() + s.off + s.len, p);
    return static_cast<std::uint32_t>(it - ids_.begin());
  }

  /// The most recently freed slot, else a new one; it starts unstamped.
  [[nodiscard]] std::uint32_t new_slot() {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = spans_[slot].off;
      spans_[slot] = Span{};
    } else {
      slot = spans_.size();
      if (slot == spans_.capacity()) {
        set_slot_capacity(std::max<std::uint32_t>(1, 2 * slot));
      }
      spans_.resize(pool_, slot + 1);
    }
    if (stamps_ != nullptr) {
      stamps_[slot] = 0;
    }
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    Span& s = spans_[slot];
    total_entries_ -= s.len;
    dead_ += s.cap;
    s = Span{};
    s.off = free_head_;
    free_head_ = slot;
  }

  /// Moves spans_ (and the stamp column, which spans_'s capacity sizes)
  /// to blocks of exactly `cap` slots, cap >= spans_.size().
  void set_slot_capacity(std::uint32_t cap) {
    const std::uint32_t old_cap = spans_.capacity();
    if (cap == old_cap) {
      return;
    }
    if (stamps_ != nullptr) {
      std::uint64_t* fresh =
          cap == 0 ? nullptr : StampArray::alloc_block(pool_, cap);
      std::copy_n(stamps_, spans_.size(), fresh);
      StampArray::free_block(pool_, stamps_, old_cap);
      stamps_ = fresh;
    }
    spans_.reallocate(pool_, cap);
  }

  void maybe_compact() {
    if (dead_ >= kCompactMinDead && dead_ * 2 >= ids_.size()) {
      compact();
    }
  }

  /// Ensures the row can hold at least `need` entries, relocating it to
  /// the column tail if its current region is too small. A row's first
  /// span is `need` exactly when the caller writes the row `whole`, else
  /// kFirstSpan; a relocation at least doubles the span.
  void reserve_row(std::uint32_t slot, std::uint32_t need, bool whole) {
    if (need <= spans_[slot].cap) {
      return;
    }
    // Compact BEFORE growing, never after: compaction tight-packs every
    // span (cap = len), which must not clobber the capacity we are about
    // to hand the caller.
    maybe_compact();
    Span& s = spans_[slot];
    std::uint32_t cap = s.cap != 0 ? s.cap * 2 : whole ? need : kFirstSpan;
    cap = std::max(cap, need);
    const std::uint32_t off = ids_.size();
    ids_.resize(pool_, off + cap);
    ts_.resize(pool_, off + cap);
    Span& s2 = spans_[slot];  // resize above does not move spans_
    if (s2.len > 0) {
      std::copy(ids_.begin() + s2.off, ids_.begin() + s2.off + s2.len,
                ids_.begin() + off);
      std::copy(ts_.begin() + s2.off, ts_.begin() + s2.off + s2.len,
                ts_.begin() + off);
    }
    dead_ += s2.cap;
    s2.off = off;
    s2.cap = cap;
  }

  void set_entry(std::uint32_t slot, ProcessId p, Timestamp ts) {
    const std::uint32_t pos = find_pos(slot, p);
    if (ts == Timestamp{}) {
      if (pos == kNotFound) {
        return;
      }
      Span& s = spans_[slot];
      std::copy(ids_.begin() + pos + 1, ids_.begin() + s.off + s.len,
                ids_.begin() + pos);
      std::copy(ts_.begin() + pos + 1, ts_.begin() + s.off + s.len,
                ts_.begin() + pos);
      --s.len;
      --total_entries_;
      return;
    }
    if (pos != kNotFound) {
      ts_[pos] = pack(ts);
      return;
    }
    reserve_row(slot, spans_[slot].len + 1, /*whole=*/false);
    Span& s = spans_[slot];
    const std::uint32_t ins = lower_pos(slot, p);
    std::copy_backward(ids_.begin() + ins, ids_.begin() + s.off + s.len,
                       ids_.begin() + s.off + s.len + 1);
    std::copy_backward(ts_.begin() + ins, ts_.begin() + s.off + s.len,
                       ts_.begin() + s.off + s.len + 1);
    ids_[ins] = p;
    ts_[ins] = pack(ts);
    ++s.len;
    ++total_entries_;
  }

  void assign_row(std::uint32_t slot, const FlatMap<ProcessId, Timestamp>& m) {
    Span* s = &spans_[slot];
    total_entries_ -= s->len;
    s->len = 0;
    reserve_row(slot, static_cast<std::uint32_t>(m.size()), /*whole=*/true);
    s = &spans_[slot];  // reserve_row may compact / relocate
    std::uint32_t w = s->off;
    for (const auto& [p, ts] : m) {
      ids_[w] = p;
      ts_[w] = pack(ts);
      ++w;
    }
    s->len = static_cast<std::uint32_t>(m.size());
    total_entries_ += s->len;
  }

  /// In-place backward two-pointer merge of `m` into the row. Merged
  /// entries are never 0 (inputs never store 0), so no erasure happens.
  /// Returns whether the row gained an entry or changed one.
  bool merge_row(std::uint32_t slot, const FlatMap<ProcessId, Timestamp>& m) {
    if (m.empty()) {
      return false;
    }
    // Count the keys of `m` missing from the row to size the result.
    std::uint32_t extra = 0;
    {
      const Span& s = spans_[slot];
      std::uint32_t i = s.off;
      const std::uint32_t hi = s.off + s.len;
      auto b = m.begin();
      while (b != m.end()) {
        while (i < hi && ids_[i] < b->first) {
          ++i;
        }
        if (i == hi || ids_[i] != b->first) {
          ++extra;
        }
        ++b;
      }
    }
    if (extra > 0) {
      reserve_row(slot, spans_[slot].len + extra,
                  /*whole=*/spans_[slot].len == 0);
    }
    Span& s = spans_[slot];
    // Backward merge: read cursors at the ends of both inputs, write
    // cursor at the end of the widened row. Writes never pass reads.
    std::int64_t r = static_cast<std::int64_t>(s.off) + s.len - 1;
    auto b = m.end();
    std::int64_t w = static_cast<std::int64_t>(s.off) + s.len + extra - 1;
    const auto lo = static_cast<std::int64_t>(s.off);
    bool changed = false;
    while (b != m.begin()) {
      auto prev = b;
      --prev;
      if (r >= lo && ids_[r] > prev->first) {
        ids_[w] = ids_[r];
        ts_[w] = ts_[r];
        --r;
      } else if (r >= lo && ids_[r] == prev->first) {
        const std::uint64_t merged = pack_merge(ts_[r], pack(prev->second));
        changed = changed || merged != ts_[r];
        ids_[w] = ids_[r];
        ts_[w] = merged;
        --r;
        b = prev;
      } else {
        ids_[w] = prev->first;
        ts_[w] = pack(prev->second);
        b = prev;
      }
      --w;
    }
    // Entries below `w` are already in place (r == w at this point).
    s.len += extra;
    total_entries_ += extra;
    return changed || extra > 0;
  }

  /// Allocates exactly `o`'s column slots; `this` holds nothing yet.
  void copy_contents(const RowTable& o) {
    index_ = o.index_;
    spans_.assign(pool_, o.spans_);
    if (o.stamps_ != nullptr && spans_.capacity() != 0) {
      stamps_ = StampArray::alloc_block(pool_, spans_.capacity());
      std::copy_n(o.stamps_, spans_.size(), stamps_);
    }
    ids_.assign(pool_, o.ids_);
    ts_.assign(pool_, o.ts_);
    free_head_ = o.free_head_;
    dead_ = o.dead_;
    total_entries_ = o.total_entries_;
  }

  /// Sorted index: row key → slot. Slots are stable across interning and
  /// compaction; only erase recycles them.
  FlatMap<ProcessId, std::uint32_t> index_;
  /// Backs spans_, the stamp column and both entry columns.
  Pool* pool_ = nullptr;
  PoolArray<Span> spans_;
  /// Revision stamp per slot, spans_.capacity() long; null until the
  /// first set_stamp, so a table that never stamps holds no column.
  std::uint64_t* stamps_ = nullptr;
  /// The shared entry columns all rows slice into (always the same size).
  PoolArray<ProcessId> ids_;
  PoolArray<std::uint64_t> ts_;
  /// Head of the free-slot list threaded through spans_ (kNoSlot: empty).
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t dead_ = 0;
  std::uint32_t total_entries_ = 0;
};

}  // namespace cgc

