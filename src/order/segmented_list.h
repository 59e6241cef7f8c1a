// An LRU list partitioned into k contiguous segments, each holding a byte
// budget in SizeUnits, with O(k + slides) bookkeeping per access.
//
// This is the engine behind the unified-LRU (Wong & Wilkes DEMOTE) baseline:
// segment i models cache level L_{i+1}. When a block is referenced at the
// MRU position, blocks slide across each over-budget segment boundary until
// every segment fits its budget again — each slide is exactly one demotion
// in uniLRU, and overflow past the final segment is an eviction. At unit
// block size exactly one block crosses each full boundary (the classic
// count-capacity behaviour); sized blocks can push several blocks across a
// boundary or off the bottom in a single access, so crossings and evictions
// are reported as vectors in the order they happened.
//
// Storage has the LruPolicy shape (util/slab.h, util/flat_hash.h): one slab
// node per resident key, linked by 32-bit handles, and a FlatMap index from
// key to handle. Both are pre-sized to the total budget (capped, so a huge
// byte budget does not pre-carve an absurd arena), so the steady-state
// access path performs no allocation and no rehash.
#pragma once

#include <cstdint>
#include <vector>

#include "util/flat_hash.h"
#include "util/slab.h"

namespace ulc {

class SegmentedList {
 public:
  using Key = std::uint64_t;
  using SizeUnits = std::uint32_t;

  static constexpr std::size_t kNoSegment = static_cast<std::size_t>(-1);

  struct Crossing {
    std::size_t from = 0;  // key slid from segment `from` into `from + 1`
    Key key = 0;
    SizeUnits size = 1;  // the slid block's footprint (byte-weighted stats)
  };

  struct AccessResult {
    bool hit = false;
    // Segment the key was found in (kNoSegment on miss).
    std::size_t old_segment = kNoSegment;
    // Boundary crossings in the order they happened: all segment-0 slides
    // first, then segment 1, ... (each entry is one uniLRU demotion).
    std::vector<Crossing> crossed;
    // Keys evicted off the bottom of the last segment, in eviction order.
    std::vector<Key> evicted;
  };

  explicit SegmentedList(std::vector<std::size_t> segment_capacities);

  SegmentedList(const SegmentedList&) = delete;
  SegmentedList& operator=(const SegmentedList&) = delete;

  // References `key`: moves it to the MRU position (inserting it at `size`
  // units if absent; a resident key keeps its original size) and updates
  // segment boundaries. Results are written into `out` (whose buffers are
  // reused across calls to avoid per-access allocation). A key larger than
  // the total budget slides straight through and comes back in
  // `out.evicted`.
  void access(Key key, AccessResult& out, SizeUnits size = 1);

  // Removes `key` from the list if present (used by exclusive-caching
  // variants that drop a block on read). Returns true if it was present.
  bool remove(Key key, AccessResult& out);

  // Pulls `key`'s index group toward the cache ahead of an access to it.
  // Non-mutating; part of the owning scheme's prefetch pipeline.
  void prefetch(Key key) const { index_.prefetch(key); }

  bool contains(Key key) const { return index_.contains(key); }
  // Segment of `key`, or kNoSegment if absent.
  std::size_t segment_of(Key key) const;

  std::size_t size() const { return list_.size(); }
  std::size_t segment_count() const { return caps_.size(); }
  std::size_t segment_size(std::size_t s) const { return counts_[s]; }
  std::uint64_t segment_bytes(std::size_t s) const { return bytes_[s]; }
  std::size_t segment_capacity(std::size_t s) const { return caps_[s]; }
  // Node slots carved so far (pre-sized at construction, grown on demand).
  std::size_t reserved_nodes() const { return slab_.slot_count(); }

  // O(n) structural validation for tests.
  bool check_consistency() const;

 private:
  struct Node {
    Key key;
    SizeUnits size;
    std::uint32_t segment;
    SlabHandle prev;
    SlabHandle next;
  };

  std::vector<std::size_t> caps_;   // byte budgets, in SizeUnits
  std::vector<std::size_t> counts_;
  std::vector<std::uint64_t> bytes_;
  // last_[s]: LRU-most node of segment s; only meaningful when counts_[s] > 0.
  std::vector<SlabHandle> last_;
  Slab<Node> slab_;
  SlabList<Node> list_{&slab_};  // front = MRU
  FlatMap<Key, SlabHandle> index_;

  // Makes `h` the MRU-most node of segment 0 (it must already be linked at
  // the list front).
  void enter_front_segment(SlabHandle h);
  void detach_from_segment(SlabHandle h);
  // Shifts overflow down across boundaries starting at segment `from`,
  // recording crossings; evicts from the final segment on overflow.
  void rebalance(std::size_t from, AccessResult& out);
};

}  // namespace ulc
