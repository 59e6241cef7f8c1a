#include "order/segmented_list.h"

#include <algorithm>

#include "util/ensure.h"

namespace ulc {

namespace {

// Pre-size ceiling, as in UlcClient: past it both structures grow
// organically, so a byte budget far above the block count stays cheap.
constexpr std::uint64_t kReserveCap = std::uint64_t{1} << 20;

}  // namespace

SegmentedList::SegmentedList(std::vector<std::size_t> segment_capacities)
    : caps_(std::move(segment_capacities)),
      counts_(caps_.size(), 0),
      bytes_(caps_.size(), 0),
      last_(caps_.size(), kNullHandle) {
  ULC_REQUIRE(!caps_.empty(), "SegmentedList needs at least one segment");
  std::uint64_t total = 1;  // a new key is linked before rebalance evicts
  for (std::size_t c : caps_) {
    ULC_REQUIRE(c >= 1, "segment capacity must be >= 1");
    total = std::min<std::uint64_t>(total + std::min<std::uint64_t>(c, kReserveCap),
                                    kReserveCap);
  }
  index_.reserve(static_cast<std::size_t>(total));
  slab_.reserve(static_cast<std::size_t>(total));
}

void SegmentedList::enter_front_segment(SlabHandle h) {
  Node& n = slab_[h];
  n.segment = 0;
  ++counts_[0];
  bytes_[0] += n.size;
  if (counts_[0] == 1) last_[0] = h;
}

void SegmentedList::detach_from_segment(SlabHandle h) {
  const Node& n = slab_[h];
  const std::size_t s = n.segment;
  --counts_[s];
  bytes_[s] -= n.size;
  if (last_[s] == h) {
    // With counts_[s] > 0 the predecessor is still in segment s (segments
    // are contiguous and h was the segment's LRU-most node).
    last_[s] = counts_[s] > 0 ? n.prev : kNullHandle;
  }
}

void SegmentedList::rebalance(std::size_t from, AccessResult& out) {
  for (std::size_t s = from; s < caps_.size(); ++s) {
    // A sized insert can overflow a segment by more than one unit, so keep
    // sliding the segment's LRU-most block down until the budget holds. At
    // unit size this loop body runs at most once per boundary.
    while (bytes_[s] > caps_[s]) {
      const SlabHandle h = last_[s];
      detach_from_segment(h);
      Node& m = slab_[h];
      if (s + 1 < caps_.size()) {
        // Slide m across the boundary: positionally it stays put; it
        // becomes the MRU-most member of segment s+1.
        out.crossed.push_back(Crossing{s, m.key, m.size});
        m.segment = static_cast<std::uint32_t>(s + 1);
        ++counts_[s + 1];
        bytes_[s + 1] += m.size;
        if (counts_[s + 1] == 1) last_[s + 1] = h;
      } else {
        // Overflow past the final segment: evict from the global LRU
        // position.
        ULC_ENSURE(h == list_.back(), "final-segment LRU block must be the list tail");
        out.evicted.push_back(m.key);
        index_.erase(m.key);
        list_.erase(h);
        slab_.free(h);
      }
    }
  }
}

void SegmentedList::access(Key key, AccessResult& out, SizeUnits size) {
  out.hit = false;
  out.old_segment = kNoSegment;
  out.crossed.clear();
  out.evicted.clear();
  ULC_REQUIRE(size >= 1, "block size must be at least one unit");

  const SlabHandle* found = index_.find(key);
  if (found != nullptr) {
    const SlabHandle h = *found;
    const std::size_t old = slab_[h].segment;
    out.hit = true;
    out.old_segment = old;
    if (old == 0 && list_.front() == h) {
      return;  // already MRU; nothing moves
    }
    detach_from_segment(h);
    list_.move_front(h);
    enter_front_segment(h);
    rebalance(0, out);
    return;
  }

  const SlabHandle h = slab_.alloc();
  Node& n = slab_[h];
  n.key = key;
  n.size = size;
  list_.push_front(h);
  enter_front_segment(h);
  index_.insert_new(key, h);
  rebalance(0, out);
}

bool SegmentedList::remove(Key key, AccessResult& out) {
  out.hit = false;
  out.old_segment = kNoSegment;
  out.crossed.clear();
  out.evicted.clear();

  const SlabHandle* found = index_.find(key);
  if (found == nullptr) return false;
  const SlabHandle h = *found;
  out.old_segment = slab_[h].segment;
  detach_from_segment(h);
  index_.erase(key);
  list_.erase(h);
  slab_.free(h);
  return true;
}

std::size_t SegmentedList::segment_of(Key key) const {
  const SlabHandle* found = index_.find(key);
  return found == nullptr ? kNoSegment : slab_[*found].segment;
}

bool SegmentedList::check_consistency() const {
  std::size_t seen = 0;
  std::vector<std::size_t> counts(caps_.size(), 0);
  std::vector<std::uint64_t> bytes(caps_.size(), 0);
  std::size_t prev_segment = 0;
  SlabHandle prev = kNullHandle;
  for (SlabHandle h = list_.front(); h != kNullHandle; h = list_.next(h)) {
    const Node& n = slab_[h];
    if (list_.prev(h) != prev) return false;
    if (n.segment >= caps_.size()) return false;
    if (n.segment < prev_segment) return false;  // segments must be contiguous
    if (n.size < 1) return false;
    prev_segment = n.segment;
    ++counts[n.segment];
    bytes[n.segment] += n.size;
    const SlabHandle* indexed = index_.find(n.key);
    if (indexed == nullptr || *indexed != h) return false;
    ++seen;
    prev = h;
  }
  if (prev != list_.back()) return false;
  if (seen != list_.size() || index_.size() != seen || slab_.live() != seen)
    return false;
  for (std::size_t s = 0; s < caps_.size(); ++s) {
    if (counts[s] != counts_[s]) return false;
    if (bytes[s] != bytes_[s]) return false;
    if (bytes_[s] > caps_[s]) return false;  // the byte-capacity law
    if (counts_[s] > 0) {
      const SlabHandle last = last_[s];
      if (last == kNullHandle || slab_[last].segment != s) return false;
      const SlabHandle after = list_.next(last);
      if (after != kNullHandle && slab_[after].segment == s) return false;
    }
  }
  return true;
}

}  // namespace ulc
