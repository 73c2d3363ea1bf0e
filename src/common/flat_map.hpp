// Sorted flat containers: the dense-core replacement for the node-based
// `std::map`/`std::set` tables that used to back every hot path.
//
// A `FlatMap` stores its entries in one contiguous, key-sorted vector.
// Lookup is a binary search that degrades to a plain linear scan for ≤8
// entries (dependency vectors of a process with a handful of
// acquaintances — the paper's common case, §3.3 — fit entirely in one or
// two cache lines). Iteration is in strictly increasing key order, i.e.
// byte-for-byte the order `std::map` produced, which is what keeps the
// wire encoding of every message identical across the representation
// change (locked by the golden-trace test).
//
// The trade: insert/erase in the middle are O(n) memmoves instead of
// O(log n) pointer surgery. For the table sizes this system sees
// (acquaintance sets, not object counts) the memmove of a few hundred
// contiguous bytes beats the allocator + pointer chase every time — the
// Fig. 6 merge microbench quantifies it.
//
// Deliberate deviations from std::map:
//   * `value_type` is `std::pair<K, V>` (not `pair<const K, V>`), so
//     structured bindings and `it->first/second` work unchanged but
//     iterators must not be used to mutate keys;
//   * NO reference stability — any insert may reallocate the backing
//     vector and invalidate every outstanding iterator and reference.
//     Callers that held std::map references across inserts (the engine's
//     process table) now go through stable indirection instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace cgc {

/// Size at or below which lookups scan linearly instead of bisecting:
/// branch-predictable, no mispredicted halving, one cache line.
inline constexpr std::size_t kFlatLinearScanMax = 8;

/// std::lower_bound over the n elements at `first`, for `less(e)` meaning
/// "e orders before the key". Each halving step is a conditional move, not
/// a branch, so a lookup in a table of a few hundred keys pays no
/// mispredictions.
template <typename T, typename Less>
[[nodiscard]] T* branchless_lower_bound(T* first, std::size_t n, Less less) {
  if (n == 0) {
    return first;
  }
  while (n > 1) {
    const std::size_t half = n / 2;
    first = less(first[half]) ? first + half : first;
    n -= half;
  }
  return first + (less(*first) ? 1 : 0);
}

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  FlatMap(std::initializer_list<value_type> init) {
    for (const value_type& v : init) {
      insert(v);
    }
  }

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return entries_.capacity(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }
  /// Drops capacity slack (memory diet for long-lived maps).
  void shrink_to_fit() { entries_.shrink_to_fit(); }
  /// clear() that actually returns the backing storage.
  void release() { std::vector<value_type>().swap(entries_); }

  [[nodiscard]] iterator lower_bound(const K& key) {
    if (entries_.size() <= kFlatLinearScanMax) {
      iterator it = entries_.begin();
      while (it != entries_.end() && it->first < key) {
        ++it;
      }
      return it;
    }
    value_type* const first = entries_.data();
    return entries_.begin() +
           (branchless_lower_bound(
                first, entries_.size(),
                [&key](const value_type& e) { return e.first < key; }) -
            first);
  }
  [[nodiscard]] const_iterator lower_bound(const K& key) const {
    return const_cast<FlatMap*>(this)->lower_bound(key);
  }

  /// First entry with a key strictly greater than `key` — how the sweep
  /// scheduler resumes a budget-bounded scan from its last-visited key
  /// (keys survive the inserts/erases that invalidate iterators).
  [[nodiscard]] iterator upper_bound(const K& key) {
    iterator it = lower_bound(key);
    if (it != entries_.end() && it->first == key) {
      ++it;
    }
    return it;
  }
  [[nodiscard]] const_iterator upper_bound(const K& key) const {
    return const_cast<FlatMap*>(this)->upper_bound(key);
  }

  [[nodiscard]] iterator find(const K& key) {
    iterator it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != entries_.end();
  }

  /// Inserts default-constructed V if absent (std::map semantics).
  V& operator[](const K& key) { return emplace(key).first->second; }

  [[nodiscard]] const V& at(const K& key) const {
    const_iterator it = find(key);
    CGC_CHECK_MSG(it != entries_.end(), "FlatMap::at: key absent");
    return it->second;
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    // Fast path for the dominant access pattern: decoding / copying sorted
    // streams appends strictly increasing keys.
    if (entries_.empty() || entries_.back().first < key) {
      entries_.emplace_back(std::piecewise_construct,
                            std::forward_as_tuple(key),
                            std::forward_as_tuple(std::forward<Args>(args)...));
      return {entries_.end() - 1, true};
    }
    iterator it = lower_bound(key);
    if (it != entries_.end() && it->first == key) {
      return {it, false};
    }
    it = entries_.emplace(it, std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  std::pair<iterator, bool> insert(const value_type& v) {
    return emplace(v.first, v.second);
  }
  std::pair<iterator, bool> insert(value_type&& v) {
    return emplace(v.first, std::move(v.second));
  }

  std::size_t erase(const K& key) {
    iterator it = find(key);
    if (it == entries_.end()) {
      return 0;
    }
    entries_.erase(it);
    return 1;
  }
  iterator erase(iterator it) { return entries_.erase(it); }
  iterator erase(const_iterator it) { return entries_.erase(it); }

  /// Two-pointer union with `other`: on common keys the stored value
  /// becomes `combine(ours, theirs)`, absent keys copy over. Linear in
  /// the two sizes — the loop Fig. 6's `max` merge compiles down to.
  ///
  /// Aliasing contract: `m.merge_with(m, f)` is defined and applies
  /// `f(v, v)` to every value in place (every key is "common"). The
  /// general path below would walk `other` while reallocating the same
  /// storage, so self-merge takes a dedicated in-place branch.
  template <typename Combine>
  void merge_with(const FlatMap& other, Combine combine) {
    if (this == &other) {
      for (value_type& e : entries_) {
        e.second = combine(e.second, e.second);
      }
      return;
    }
    if (other.entries_.empty()) {
      return;
    }
    if (entries_.empty()) {
      entries_ = other.entries_;
      return;
    }
    std::vector<value_type> merged;
    merged.reserve(entries_.size() + other.entries_.size());
    const_iterator a = entries_.begin();
    const_iterator b = other.entries_.begin();
    while (a != entries_.end() && b != other.entries_.end()) {
      if (a->first < b->first) {
        merged.push_back(*a++);
      } else if (b->first < a->first) {
        merged.push_back(*b++);
      } else {
        merged.emplace_back(a->first, combine(a->second, b->second));
        ++a;
        ++b;
      }
    }
    merged.insert(merged.end(), a, entries_.cend());
    merged.insert(merged.end(), b, other.entries_.cend());
    entries_.swap(merged);
  }

  [[nodiscard]] bool operator==(const FlatMap&) const = default;

 private:
  std::vector<value_type> entries_;
};

template <typename K>
class FlatSet {
 public:
  using value_type = K;
  using iterator = typename std::vector<K>::const_iterator;
  using const_iterator = typename std::vector<K>::const_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<K> init) {
    for (const K& k : init) {
      insert(k);
    }
  }
  template <typename It>
  FlatSet(It first, It last) {
    insert(first, last);
  }

  [[nodiscard]] const_iterator begin() const { return keys_.begin(); }
  [[nodiscard]] const_iterator end() const { return keys_.end(); }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] std::size_t capacity() const { return keys_.capacity(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  void clear() { keys_.clear(); }
  void reserve(std::size_t n) { keys_.reserve(n); }
  /// Drops capacity slack (memory diet for long-lived sets).
  void shrink_to_fit() { keys_.shrink_to_fit(); }
  /// clear() that actually returns the backing storage.
  void release() { std::vector<K>().swap(keys_); }

  [[nodiscard]] bool contains(const K& key) const {
    auto it = lower(key);
    return it != keys_.end() && *it == key;
  }
  [[nodiscard]] std::size_t count(const K& key) const {
    return contains(key) ? 1 : 0;
  }

  /// First key strictly greater than `key` (sweep-cursor resume point).
  [[nodiscard]] const_iterator upper_bound(const K& key) const {
    auto it = const_cast<FlatSet*>(this)->lower(key);
    if (it != keys_.end() && *it == key) {
      ++it;
    }
    return it;
  }

  /// Rank of `key`'s lower bound: how many keys precede it. The sweep
  /// backlog estimate uses this as the scan-queue position.
  [[nodiscard]] std::size_t rank(const K& key) const {
    return static_cast<std::size_t>(
        const_cast<FlatSet*>(this)->lower(key) - keys_.begin());
  }

  std::pair<const_iterator, bool> insert(const K& key) {
    if (keys_.empty() || keys_.back() < key) {
      keys_.push_back(key);
      return {keys_.end() - 1, true};
    }
    auto it = lower(key);
    if (it != keys_.end() && *it == key) {
      return {it, false};
    }
    return {keys_.insert(it, key), true};
  }

  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) {
      insert(*first);
    }
  }

  std::size_t erase(const K& key) {
    auto it = lower(key);
    if (it == keys_.end() || !(*it == key)) {
      return 0;
    }
    keys_.erase(it);
    return 1;
  }

  [[nodiscard]] bool operator==(const FlatSet&) const = default;

 private:
  [[nodiscard]] typename std::vector<K>::iterator lower(const K& key) {
    if (keys_.size() <= kFlatLinearScanMax) {
      auto it = keys_.begin();
      while (it != keys_.end() && *it < key) {
        ++it;
      }
      return it;
    }
    K* const first = keys_.data();
    return keys_.begin() +
           (branchless_lower_bound(first, keys_.size(),
                                   [&key](const K& k) { return k < key; }) -
            first);
  }
  [[nodiscard]] typename std::vector<K>::const_iterator lower(
      const K& key) const {
    return const_cast<FlatSet*>(this)->lower(key);
  }

  std::vector<K> keys_;
};

/// Heterogeneous equality against the std containers these types replace
/// (tests and oracles compare verdict sets across representations).
template <typename K>
[[nodiscard]] bool operator==(const FlatSet<K>& a, const std::set<K>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

template <typename K, typename V>
[[nodiscard]] bool operator==(const FlatMap<K, V>& a,
                              const std::map<K, V>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && x.second == y.second;
                    });
}

}  // namespace cgc
