// Bulk-owned memory for the hot-path storage layers: a bump-pointer
// Arena, a size-classed Pool with free-list reuse on top of it, and a
// std-compatible PoolAllocator<T> handle.
//
// Why: the detector's footprint is dominated by many small, long-lived
// heap blocks — one per dependency-vector row, one per FlatMap, one per
// simulator event. Each costs malloc metadata (16+ bytes) and loses
// locality. The arena buys those back: allocations are bump-pointer
// appends into few large blocks, frees go onto per-size-class free
// lists for exact-size reuse, and the whole region is released (or
// recycled, see reset()) in O(#blocks) when the owner dies.
//
// Epoch / reset story: reset() retires every outstanding allocation at
// once and bumps an epoch counter. Retained blocks are recycled for the
// next epoch; all recycled memory is poisoned (ASan regions when built
// with AddressSanitizer, a 0xFE byte fill otherwise) so a stale pointer
// from the previous epoch faults loudly instead of silently aliasing
// fresh data. Pool::reset() additionally drops its free lists — a
// free-list node from epoch N must never satisfy an epoch N+1 alloc.
//
// Thread story: none. Arena and Pool are intentionally single-threaded;
// the threaded runtime gives each SiteNode its own pool, constructed
// before the worker starts and read after it joins, so confinement (not
// locking) is what keeps TSan quiet.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/assert.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CGC_HAS_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define CGC_HAS_ASAN 1
#endif

#ifdef CGC_HAS_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cgc {

/// Byte value recycled arena memory is filled with in non-ASan builds
/// (ASan builds use real poisoned regions instead). Tests assert on it.
inline constexpr unsigned char kArenaPoisonByte = 0xFE;

namespace arena_detail {

inline void poison(void* p, std::size_t n) {
  if (n == 0) {
    return;
  }
#ifdef CGC_HAS_ASAN
  __asan_poison_memory_region(p, n);
#else
  std::memset(p, kArenaPoisonByte, n);
#endif
}

inline void unpoison(void* p, std::size_t n) {
#ifdef CGC_HAS_ASAN
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace arena_detail

/// Bump-pointer arena. allocate() never frees individually; reset()
/// retires everything at once and recycles the blocks for the next
/// epoch. All allocations are kAlign-aligned.
class Arena {
 public:
  /// Every allocation is aligned to this; covers every type the
  /// detector pools (no over-aligned SIMD payloads in this codebase).
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMinBlockBytes = std::size_t{16} << 10;
  static constexpr std::size_t kMaxBlockBytes = std::size_t{4} << 20;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    // ASan tracks poison per shadow byte of still-owned memory; unpoison
    // before operator delete[] returns the pages to the system allocator.
    for (Block& b : blocks_) {
      arena_detail::unpoison(b.data.get(), b.size);
    }
  }

  [[nodiscard]] void* allocate(std::size_t bytes) {
    bytes = round_up(bytes == 0 ? 1 : bytes);
    if (bytes > static_cast<std::size_t>(end_ - cur_)) {
      grow(bytes);
    }
    std::byte* p = cur_;
    cur_ += bytes;
    bytes_used_ += bytes;
    arena_detail::unpoison(p, bytes);
    return p;
  }

  /// Retires every outstanding allocation: bumps the epoch, poisons and
  /// recycles the retained blocks. O(#blocks) plus the poison fill.
  void reset() {
    ++epoch_;
    bytes_used_ = 0;
    cur_ = nullptr;
    end_ = nullptr;
    for (Block& b : blocks_) {
      arena_detail::poison(b.data.get(), b.size);  // the 0xFE fill or shadow
    }
    if (!blocks_.empty()) {
      // Resume bumping from the first retained block.
      cur_ = blocks_.front().data.get();
      end_ = cur_ + blocks_.front().size;
      live_block_ = 0;
    }
  }

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

  static constexpr std::size_t round_up(std::size_t n) {
    return (n + (kAlign - 1)) & ~(kAlign - 1);
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t need) {
    // After a reset we first walk the retained blocks before minting new
    // ones; they are poisoned wholesale, allocate() unpoisons per call.
    while (live_block_ + 1 < blocks_.size()) {
      ++live_block_;
      Block& b = blocks_[live_block_];
      if (b.size >= need) {
        cur_ = b.data.get();
        end_ = cur_ + b.size;
        return;
      }
    }
    std::size_t size = next_block_bytes_;
    next_block_bytes_ = std::min(next_block_bytes_ * 2, kMaxBlockBytes);
    if (size < need) {
      size = round_up(need);
    }
    // A new block is left untouched (nothing stale lives there): its pages
    // fault in as the bump pointer reaches them, not all in one allocation
    // (zeroing and filling 4 MB at once stalls it for milliseconds).
    Block b{std::make_unique_for_overwrite<std::byte[]>(size), size};
#ifdef CGC_HAS_ASAN
    arena_detail::poison(b.data.get(), b.size);
#endif
    cur_ = b.data.get();
    end_ = cur_ + size;
    bytes_reserved_ += size;
    blocks_.push_back(std::move(b));
    live_block_ = blocks_.size() - 1;
  }

  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::vector<Block> blocks_;
  /// Index of the block cur_/end_ point into (for post-reset recycling).
  std::size_t live_block_ = 0;
  std::size_t next_block_bytes_ = kMinBlockBytes;
  std::size_t bytes_reserved_ = 0;
  std::size_t bytes_used_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Size-classed free-list allocator over an Arena. Classes follow the
/// jemalloc-style {2^k, 1.5·2^k} ladder (16, 24, 32, 48, 64, 96, ...),
/// bounding internal fragmentation at ~33% while keeping exact-size
/// free-list reuse: a freed chunk is recycled only for requests of the
/// same class, so reuse never splits or coalesces. Requests above
/// kPassthroughBytes skip the arena and use the global heap, whose
/// cross-size reuse beats any exact-class list for big, growing blocks.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] void* allocate(std::size_t bytes) {
    if (bytes > kPassthroughBytes) {
      // Large blocks go straight to the global heap: glibc coalesces and
      // reuses a freed big block for ANY later request, whereas an
      // exact-class free list would pin every grown column's high-water
      // block to its own class for ever. On the large bench rung that
      // cross-size reuse is worth >100 MB of peak RSS; the pool keeps
      // the small-chunk bump-allocation win, which is where the
      // allocation *rate* lives.
      bytes_live_ += bytes;
      return ::operator new(bytes);
    }
    const auto [cls, size] = size_class(bytes);
    if (cls < kNumClasses && free_[cls] != nullptr) {
      FreeNode* node = free_[cls];
      arena_detail::unpoison(node, sizeof(FreeNode));
      free_[cls] = node->next;
      arena_detail::unpoison(node, size);
      bytes_live_ += size;
      ++reused_;
      return node;
    }
    bytes_live_ += size;
    return arena_.allocate(size);
  }

  void deallocate(void* p, std::size_t bytes) {
    if (p == nullptr) {
      return;
    }
    if (bytes > kPassthroughBytes) {
      bytes_live_ -= bytes;
      ::operator delete(p);
      return;
    }
    const auto [cls, size] = size_class(bytes);
    bytes_live_ -= size;
    if (cls >= kNumClasses) {
      // Oversized one-offs (unreachable while kPassthroughBytes is below
      // the ladder's top, kept as a safety net) stay parked in the arena
      // until the next reset; account them as freed-but-unpooled.
      arena_detail::poison(p, size);
      return;
    }
    // Poison the payload but keep the first pointer-sized bytes readable:
    // they hold the intrusive free-list link.
    if (size > sizeof(FreeNode)) {
      arena_detail::poison(static_cast<std::byte*>(p) + sizeof(FreeNode),
                           size - sizeof(FreeNode));
    }
    auto* node = new (p) FreeNode{free_[cls]};
    free_[cls] = node;
  }

  /// Epoch boundary: drops every free list (their nodes live in arena
  /// memory about to be poisoned) and recycles the arena blocks.
  void reset() {
    free_.fill(nullptr);
    bytes_live_ = 0;
    arena_.reset();
  }

  [[nodiscard]] const Arena& arena() const { return arena_; }
  [[nodiscard]] std::uint64_t epoch() const { return arena_.epoch(); }
  [[nodiscard]] std::size_t bytes_live() const { return bytes_live_; }
  [[nodiscard]] std::size_t bytes_reserved() const {
    return arena_.bytes_reserved();
  }
  [[nodiscard]] std::uint64_t reuse_count() const { return reused_; }

  /// Maps a request to (class index, rounded byte size). Classes ≥
  /// kNumClasses are oversized: arena-direct, no free list.
  [[nodiscard]] static constexpr std::pair<std::size_t, std::size_t>
  size_class(std::size_t bytes) {
    if (bytes <= 16) {
      return {0, 16};
    }
    const int b = std::bit_width(bytes - 1);  // bytes <= 2^b
    const std::size_t pow2 = std::size_t{1} << b;
    const std::size_t mid = pow2 / 2 + pow2 / 4;  // 1.5 * 2^(b-1)
    if (bytes <= mid) {
      return {static_cast<std::size_t>(2 * (b - 5) + 1), mid};
    }
    return {static_cast<std::size_t>(2 * (b - 5) + 2), pow2};
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static_assert(sizeof(FreeNode) <= 16,
                "smallest size class must hold a free-list link");

  /// Requests above this go to the global heap (see allocate()). Sits on
  /// a class boundary so the pooled ladder stays exact underneath.
  static constexpr std::size_t kPassthroughBytes = 4096;

  /// Ladder up to 2^22 (4 MB) chunks; anything bigger bypasses pooling.
  static constexpr std::size_t kNumClasses = 2 * (22 - 5) + 3;

  Arena arena_;
  std::array<FreeNode*, kNumClasses> free_{};
  std::size_t bytes_live_ = 0;
  std::uint64_t reused_ = 0;
};

/// std-compatible allocator handle over a Pool. A null pool degrades to
/// the global heap, so default-constructed containers keep working and
/// wire/snapshot copies (which use default allocators) never capture a
/// pool pointer by accident.
///
/// Propagation is OFF on purpose (and is_always_equal false): assigning
/// between containers never transplants the pool handle, so a copy into
/// a default-allocated container element-wise copies onto the heap
/// instead of silently aliasing arena memory with a different owner.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::false_type;
  using propagate_on_container_swap = std::false_type;
  using is_always_equal = std::false_type;

  PoolAllocator() = default;
  explicit PoolAllocator(Pool* pool) : pool_(pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool_(other.pool()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= Arena::kAlign,
                  "pooled types must not be over-aligned");
    if (pool_ != nullptr) {
      return static_cast<T*>(pool_->allocate(n * sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (pool_ != nullptr) {
      pool_->deallocate(p, n * sizeof(T));
    } else {
      ::operator delete(p);
    }
  }

  [[nodiscard]] Pool* pool() const { return pool_; }

  template <typename U>
  [[nodiscard]] bool operator==(const PoolAllocator<U>& other) const {
    return pool_ == other.pool();
  }

 private:
  Pool* pool_ = nullptr;
};

}  // namespace cgc
