// Paged slab arena handing out 32-bit node handles, plus the intrusive
// doubly-linked list that runs over it.
//
// All the recency structures of this repository (uniLRUstack, gLRU, the
// single-level policies' LRU/FIFO/ghost lists) are linked lists of tiny
// nodes indexed by block id. Allocating those nodes individually scatters
// them across the heap and costs an allocator round-trip per block; the
// slab instead carves fixed-size pages (default 1024 nodes) and recycles
// freed slots through a LIFO free stack, so
//   * alloc/free are O(1) with no heap traffic in steady state,
//   * node handles are 32-bit (halving link storage vs. Node*),
//   * pages never move once carved — a T* stays valid for the slot's whole
//     live range, across any number of later alloc() calls (no vector-style
//     reallocation), which is what lets UniLruStack keep its Node*-shaped
//     public API on top of handle storage.
//
// ABA / stale-handle policy: handles ARE recycled (LIFO), and the slab does
// not tag them with generations. This is a documented non-requirement: every
// owner in this repository stores a node's handle in exactly one index entry
// plus the intrusive links, and all of those are removed in the same
// operation that frees the slot, so no stale handle survives a free. Code
// that wanted to cache handles across mutations would need its own
// generation scheme (see slab_test for the recycling contract).
//
// Determinism: alloc order depends only on the alloc/free history (LIFO
// reuse, ascending carve order), never on addresses, so simulator output
// cannot pick up allocator noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/ensure.h"
#include "util/simd.h"

namespace ulc {

using SlabHandle = std::uint32_t;
inline constexpr SlabHandle kNullHandle = 0xFFFFFFFFu;

template <typename T>
class Slab {
 public:
  // `page_size` must be a power of two. `max_slots` bounds the handle space;
  // the default leaves kNullHandle as the only unusable value. Smaller
  // bounds exist for tests (arena-exhaustion death test) and for callers
  // that want a hard metadata budget.
  explicit Slab(std::uint32_t page_size = 1024,
                std::uint64_t max_slots = kNullHandle)
      : page_size_(page_size), max_slots_(max_slots) {
    ULC_REQUIRE(page_size >= 2 && (page_size & (page_size - 1)) == 0,
                "slab page size must be a power of two >= 2");
    ULC_REQUIRE(max_slots_ <= kNullHandle, "slab handle space is 32-bit");
    std::uint32_t shift = 0;
    while ((1u << shift) != page_size_) ++shift;
    page_shift_ = shift;
  }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  // Hands out a slot. Reuses the most recently freed slot first; otherwise
  // carves the next page. The returned slot holds whatever the previous
  // occupant left (on a fresh page: T{}, or indeterminate bytes when T is
  // trivially default-constructible) — callers assign every field.
  SlabHandle alloc() {
    if (free_.empty()) carve_page();
    const SlabHandle h = free_.back();
    free_.pop_back();
    ++page_live_[h >> page_shift_];
    ++live_;
    ++stats_.allocs;
    return h;
  }

  void free(SlabHandle h) {
    ULC_REQUIRE(h < slot_count(), "slab free of an out-of-range handle");
    ULC_ENSURE(page_live_[h >> page_shift_] > 0,
               "slab free underflows its page's live count");
    --page_live_[h >> page_shift_];
    --live_;
    ++stats_.frees;
    free_.push_back(h);
  }

  T& operator[](SlabHandle h) {
    ULC_ENSURE(h < slot_count(), "slab access with an out-of-range handle");
    return pages_[h >> page_shift_][h & (page_size_ - 1)];
  }
  const T& operator[](SlabHandle h) const {
    ULC_ENSURE(h < slot_count(), "slab access with an out-of-range handle");
    return pages_[h >> page_shift_][h & (page_size_ - 1)];
  }
  T* get(SlabHandle h) { return &(*this)[h]; }
  const T* get(SlabHandle h) const { return &(*this)[h]; }

  // Pulls the slot the next alloc() will hand out toward the cache in
  // exclusive state (callers assign every field of a fresh slot). No-op when
  // the next alloc would carve. Non-mutating; part of the prefetch pipeline.
  void prefetch_next_alloc() const {
    if (!free_.empty()) {
      const SlabHandle h = free_.back();
      prefetch_write(&pages_[h >> page_shift_][h & (page_size_ - 1)]);
    }
  }

  std::size_t live() const { return live_; }
  // Cached (updated on carve/release): this is the bound every handle deref
  // checks, so it must not re-derive pages_.size() each time.
  std::size_t slot_count() const { return slot_count_; }
  std::size_t page_count() const { return pages_.size(); }
  std::uint32_t page_size() const { return page_size_; }

  // Carves pages until at least `n` slots exist (no-op if already there).
  // The largest reservation is also a floor for release_free_pages: pages a
  // caller pre-carved to avoid mid-run carving are never handed back, so a
  // reserve-then-fill warm-up cannot be undone by an early release.
  void reserve(std::size_t n) {
    if (n > reserved_floor_) reserved_floor_ = n;
    // One free-stack allocation for all the pages: carve_page's per-page
    // reserve would otherwise re-copy the growing stack once per page.
    if (slot_count() < n) free_.reserve(free_.size() + (n - slot_count()) + page_size_);
    while (slot_count() < n) carve_page();
  }

  // Releases trailing pages whose slots are all free, but only when the
  // arena is mostly empty: live() must be under a quarter of the carved
  // slots AND at least two whole pages must be reclaimable. The hysteresis
  // band means a workload oscillating around a page boundary never thrashes
  // carve/release cycles. Interior free pages are kept (handles are offsets,
  // pages cannot be renumbered). Returns the number of pages released.
  std::size_t release_free_pages() {
    if (live_ * 4 >= slot_count()) return 0;
    const std::size_t keep_pages =
        (reserved_floor_ + page_size_ - 1) >> page_shift_;
    std::size_t releasable = 0;
    while (pages_.size() - releasable > keep_pages &&
           page_live_[pages_.size() - 1 - releasable] == 0)
      ++releasable;
    if (releasable < 2) return 0;
    for (std::size_t i = 0; i < releasable; ++i) {
      pages_.pop_back();
      page_live_.pop_back();
    }
    slot_count_ -= releasable << page_shift_;
    const SlabHandle limit = static_cast<SlabHandle>(slot_count());
    std::size_t kept = 0;
    for (const SlabHandle h : free_) {
      if (h < limit) free_[kept++] = h;
    }
    free_.resize(kept);
    stats_.pages_released += releasable;
    return releasable;
  }

  struct Stats {
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t pages_carved = 0;
    std::uint64_t pages_released = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void carve_page() {
    // Checked here, not at class scope: nested node structs with default
    // member initializers only become default-constructible once their
    // outermost enclosing class is complete.
    static_assert(std::is_default_constructible_v<T>,
                  "slab slots are default-constructed per page");
    // Always-on (ULC_REQUIRE): past this point handles would alias and
    // corrupt links, so the guard must survive ULC_ENABLE_CHECKS=OFF builds.
    ULC_REQUIRE(slot_count() + page_size_ <= max_slots_,
                "slab arena exhausted its 32-bit handle space budget");
    const SlabHandle base = static_cast<SlabHandle>(slot_count());
    // Trivial node types skip the page memset — alloc()'s contract already
    // obliges callers to assign every field, and on hot paths the zeroing
    // is pure overwritten-before-read work. Types with default member
    // initializers still get them (for_overwrite default-initializes).
    pages_.push_back(std::make_unique_for_overwrite<T[]>(page_size_));
    page_live_.push_back(0);
    slot_count_ += page_size_;
    // Reverse order so alloc() hands out ascending handles within a page.
    free_.reserve(free_.size() + page_size_);
    for (std::uint32_t i = page_size_; i-- > 0;)
      free_.push_back(base + i);
    ++stats_.pages_carved;
  }

  std::uint32_t page_size_;
  std::uint32_t page_shift_ = 0;
  std::uint64_t max_slots_;
  std::size_t reserved_floor_ = 0;  // largest reserve(); release keeps it
  std::size_t slot_count_ = 0;      // == pages_.size() << page_shift_
  std::vector<std::unique_ptr<T[]>> pages_;
  std::vector<std::uint32_t> page_live_;  // live slots per page
  std::vector<SlabHandle> free_;          // LIFO free stack
  std::size_t live_ = 0;
  Stats stats_;
};

// Intrusive doubly-linked list over a Slab. `T` exposes two SlabHandle link
// members; which ones via the member-pointer parameters, so one node type
// can sit on several lists at once (LIRS stack S + queue Q). The list never
// allocates: push/erase relink handles the owner already holds.
template <typename T, SlabHandle T::* PrevM = &T::prev,
          SlabHandle T::* NextM = &T::next>
class SlabList {
 public:
  explicit SlabList(Slab<T>* slab) : slab_(slab) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  SlabHandle front() const { return head_; }
  SlabHandle back() const { return tail_; }
  SlabHandle next(SlabHandle h) const { return (*slab_)[h].*NextM; }
  SlabHandle prev(SlabHandle h) const { return (*slab_)[h].*PrevM; }

  void push_front(SlabHandle h) {
    T& n = (*slab_)[h];
    n.*PrevM = kNullHandle;
    n.*NextM = head_;
    if (head_ != kNullHandle) (*slab_)[head_].*PrevM = h;
    head_ = h;
    if (tail_ == kNullHandle) tail_ = h;
    ++size_;
  }

  void push_back(SlabHandle h) {
    T& n = (*slab_)[h];
    n.*NextM = kNullHandle;
    n.*PrevM = tail_;
    if (tail_ != kNullHandle) (*slab_)[tail_].*NextM = h;
    tail_ = h;
    if (head_ == kNullHandle) head_ = h;
    ++size_;
  }

  void erase(SlabHandle h) {
    T& n = (*slab_)[h];
    const SlabHandle p = n.*PrevM;
    const SlabHandle x = n.*NextM;
    if (p != kNullHandle)
      (*slab_)[p].*NextM = x;
    else
      head_ = x;
    if (x != kNullHandle)
      (*slab_)[x].*PrevM = p;
    else
      tail_ = p;
    n.*PrevM = n.*NextM = kNullHandle;
    ULC_ENSURE(size_ > 0, "SlabList erase from an empty list");
    --size_;
  }

  void move_front(SlabHandle h) {
    if (head_ == h) return;
    erase(h);
    push_front(h);
  }

  void move_back(SlabHandle h) {
    if (tail_ == h) return;
    erase(h);
    push_back(h);
  }

  // Forgets the membership bookkeeping; the owner frees (or reuses) the
  // nodes itself.
  void clear() {
    head_ = tail_ = kNullHandle;
    size_ = 0;
  }

 private:
  Slab<T>* slab_;
  SlabHandle head_ = kNullHandle;
  SlabHandle tail_ = kNullHandle;
  std::size_t size_ = 0;
};

}  // namespace ulc
