#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include "order/order_statistic_list.h"
#include "order/segmented_list.h"
#include "trace/types.h"
#include "util/prng.h"

namespace ulc {
namespace {

TEST(OrderStatisticList, InsertFrontBackAndAt) {
  OrderStatisticList list;
  auto a = list.insert_back(10);
  auto b = list.insert_back(20);
  auto c = list.insert_front(5);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.value(list.at(0)), 5u);
  EXPECT_EQ(list.value(list.at(1)), 10u);
  EXPECT_EQ(list.value(list.at(2)), 20u);
  EXPECT_EQ(list.rank(a), 1u);
  EXPECT_EQ(list.rank(b), 2u);
  EXPECT_EQ(list.rank(c), 0u);
  EXPECT_TRUE(list.check_consistency());
}

TEST(OrderStatisticList, InsertAtMiddle) {
  OrderStatisticList list;
  list.insert_back(1);
  list.insert_back(3);
  auto h = list.insert_at(1, 2);
  EXPECT_EQ(list.rank(h), 1u);
  EXPECT_EQ(list.value(list.at(1)), 2u);
  EXPECT_TRUE(list.check_consistency());
}

TEST(OrderStatisticList, EraseMaintainsRanks) {
  OrderStatisticList list;
  std::vector<OrderStatisticList::Handle> hs;
  for (std::uint64_t i = 0; i < 10; ++i) hs.push_back(list.insert_back(i));
  list.erase(hs[4]);
  EXPECT_EQ(list.size(), 9u);
  EXPECT_EQ(list.rank(hs[5]), 4u);
  EXPECT_EQ(list.value(list.at(4)), 5u);
  EXPECT_TRUE(list.check_consistency());
}

TEST(OrderStatisticList, MoveRepositions) {
  OrderStatisticList list;
  std::vector<OrderStatisticList::Handle> hs;
  for (std::uint64_t i = 0; i < 6; ++i) hs.push_back(list.insert_back(i));
  list.move(hs[5], 0);  // 5 0 1 2 3 4
  EXPECT_EQ(list.rank(hs[5]), 0u);
  EXPECT_EQ(list.rank(hs[0]), 1u);
  list.move(hs[5], 5);  // back to the end
  EXPECT_EQ(list.rank(hs[5]), 5u);
  EXPECT_EQ(list.rank(hs[0]), 0u);
  list.move(hs[2], 3);
  EXPECT_EQ(list.value(list.at(3)), 2u);
  EXPECT_TRUE(list.check_consistency());
}

// Property sweep: random ops mirrored against a std::vector reference.
class OrderStatisticRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderStatisticRandomTest, MatchesVectorReference) {
  Rng rng(GetParam());
  OrderStatisticList list;
  std::vector<std::uint64_t> ref;
  std::vector<OrderStatisticList::Handle> handles;  // parallel to values
  std::vector<std::uint64_t> values;
  std::uint64_t next_value = 0;

  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.next_below(4);
    if (op == 0 || ref.empty()) {  // insert
      const std::size_t pos =
          static_cast<std::size_t>(rng.next_below(ref.size() + 1));
      const std::uint64_t v = next_value++;
      ref.insert(ref.begin() + static_cast<std::ptrdiff_t>(pos), v);
      handles.push_back(list.insert_at(pos, v));
      values.push_back(v);
    } else if (op == 1) {  // erase
      const std::size_t idx =
          static_cast<std::size_t>(rng.next_below(values.size()));
      const std::uint64_t v = values[idx];
      const auto it = std::find(ref.begin(), ref.end(), v);
      ASSERT_NE(it, ref.end());
      ref.erase(it);
      list.erase(handles[idx]);
      handles[idx] = handles.back();
      values[idx] = values.back();
      handles.pop_back();
      values.pop_back();
    } else if (op == 2) {  // move
      const std::size_t idx =
          static_cast<std::size_t>(rng.next_below(values.size()));
      const std::size_t pos = static_cast<std::size_t>(rng.next_below(ref.size()));
      const std::uint64_t v = values[idx];
      const auto it = std::find(ref.begin(), ref.end(), v);
      ref.erase(it);
      ref.insert(ref.begin() + static_cast<std::ptrdiff_t>(pos), v);
      list.move(handles[idx], pos);
    } else {  // verify ranks
      const std::size_t idx =
          static_cast<std::size_t>(rng.next_below(values.size()));
      const auto it = std::find(ref.begin(), ref.end(), values[idx]);
      ASSERT_EQ(list.rank(handles[idx]),
                static_cast<std::size_t>(it - ref.begin()));
    }
    ASSERT_EQ(list.size(), ref.size());
  }
  ASSERT_TRUE(list.check_consistency());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(list.value(list.at(i)), ref[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderStatisticRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- SegmentedList ----

TEST(SegmentedList, FillsSegmentsInOrder) {
  SegmentedList list({2, 2});
  SegmentedList::AccessResult r;
  list.access(1, r);
  EXPECT_FALSE(r.hit);
  list.access(2, r);
  list.access(3, r);
  ASSERT_EQ(r.crossed.size(), 1u);  // block 1 slid into segment 1
  EXPECT_EQ(r.crossed[0].from, 0u);
  EXPECT_EQ(r.crossed[0].key, 1u);
  list.access(4, r);
  EXPECT_EQ(list.segment_size(0), 2u);
  EXPECT_EQ(list.segment_size(1), 2u);
  EXPECT_EQ(list.segment_of(4), 0u);
  EXPECT_EQ(list.segment_of(3), 0u);
  EXPECT_EQ(list.segment_of(2), 1u);
  EXPECT_EQ(list.segment_of(1), 1u);
  EXPECT_TRUE(list.check_consistency());
}

TEST(SegmentedList, EvictsFromGlobalLruPosition) {
  SegmentedList list({1, 1});
  SegmentedList::AccessResult r;
  list.access(1, r);
  list.access(2, r);
  list.access(3, r);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0], 1u);
  EXPECT_FALSE(list.contains(1));
  EXPECT_TRUE(list.contains(2));
  EXPECT_TRUE(list.contains(3));
}

TEST(SegmentedList, HitReportsOldSegmentAndDemotesAboveIt) {
  SegmentedList list({2, 2, 2});
  SegmentedList::AccessResult r;
  for (BlockId b = 1; b <= 6; ++b) list.access(b, r);
  // Stack (MRU->LRU): 6 5 | 4 3 | 2 1
  list.access(1, r);  // hit in segment 2
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.old_segment, 2u);
  ASSERT_EQ(r.crossed.size(), 2u);  // one slide at each boundary above
  EXPECT_EQ(r.crossed[0].from, 0u);
  EXPECT_EQ(r.crossed[0].key, 5u);
  EXPECT_EQ(r.crossed[1].from, 1u);
  EXPECT_EQ(r.crossed[1].key, 3u);
  EXPECT_TRUE(r.evicted.empty());
  // Hit at the top causes no movement.
  list.access(1, r);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.old_segment, 0u);
  EXPECT_TRUE(r.crossed.empty());
  EXPECT_TRUE(list.check_consistency());
}

// ---- sized blocks ----

TEST(SegmentedList, SizedBlocksCrossAndEvictInBatches) {
  SegmentedList list({4, 4});
  SegmentedList::AccessResult r;
  list.access(1, r, 2);
  list.access(2, r, 2);  // segment 0 exactly full: [2, 1]
  EXPECT_TRUE(r.crossed.empty());
  list.access(3, r, 4);  // 3 displaces both resident blocks at once
  ASSERT_EQ(r.crossed.size(), 2u);
  EXPECT_EQ(r.crossed[0].key, 1u);  // LRU-most slides first
  EXPECT_EQ(r.crossed[1].key, 2u);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_EQ(list.segment_bytes(0), 4u);
  EXPECT_EQ(list.segment_bytes(1), 4u);
  list.access(4, r, 4);  // pushes 3 down, which pushes 1 and 2 out
  ASSERT_EQ(r.crossed.size(), 1u);
  EXPECT_EQ(r.crossed[0].key, 3u);
  ASSERT_EQ(r.evicted.size(), 2u);
  EXPECT_EQ(r.evicted[0], 1u);
  EXPECT_EQ(r.evicted[1], 2u);
  EXPECT_TRUE(list.check_consistency());
}

TEST(SegmentedList, OversizedBlockPassesStraightThrough) {
  SegmentedList list({2, 2});
  SegmentedList::AccessResult r;
  list.access(1, r, 1);
  list.access(9, r, 8);  // larger than the whole budget: slides off the end
  EXPECT_FALSE(r.hit);
  ASSERT_EQ(r.evicted.size(), 2u);
  EXPECT_EQ(r.evicted[0], 1u);
  EXPECT_EQ(r.evicted[1], 9u);
  EXPECT_FALSE(list.contains(9));
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.check_consistency());
}

TEST(SegmentedList, SizedHitCanEvictThroughTheBottom) {
  SegmentedList list({4, 3});
  SegmentedList::AccessResult r;
  list.access(10, r, 1);
  list.access(20, r, 2);
  list.access(30, r, 1);
  list.access(40, r, 3);  // layout: seg0 = [40(3), 30(1)], seg1 = [20(2), 10(1)]
  EXPECT_EQ(list.segment_bytes(0), 4u);
  EXPECT_EQ(list.segment_bytes(1), 3u);
  // A hit moves no net bytes, but block granularity can overshoot a
  // boundary and squeeze blocks off the bottom.
  list.access(20, r);  // resident: keeps its stored size of 2
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.old_segment, 1u);
  ASSERT_EQ(r.crossed.size(), 2u);
  EXPECT_EQ(r.crossed[0].key, 30u);
  EXPECT_EQ(r.crossed[1].key, 40u);
  ASSERT_EQ(r.evicted.size(), 2u);
  EXPECT_EQ(r.evicted[0], 10u);
  EXPECT_EQ(r.evicted[1], 30u);  // demoted and evicted in the same access
  EXPECT_TRUE(list.check_consistency());
}

TEST(SegmentedList, RemoveKeepsStructure) {
  SegmentedList list({2, 2});
  SegmentedList::AccessResult r;
  for (BlockId b = 1; b <= 4; ++b) list.access(b, r);
  EXPECT_TRUE(list.remove(2, r));
  EXPECT_EQ(r.old_segment, 1u);
  EXPECT_FALSE(list.contains(2));
  EXPECT_EQ(list.size(), 3u);
  EXPECT_FALSE(list.remove(2, r));
  EXPECT_TRUE(list.check_consistency());
}

// Property: SegmentedList behaves exactly like an LRU vector reference with
// fixed segment boundaries.
class SegmentedListRandomTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(SegmentedListRandomTest, MatchesLruReference) {
  const auto [seed, segments] = GetParam();
  Rng rng(seed);
  std::vector<std::size_t> caps;
  std::size_t total = 0;
  for (std::size_t s = 0; s < segments; ++s) {
    caps.push_back(1 + static_cast<std::size_t>(rng.next_below(4)));
    total += caps.back();
  }
  SegmentedList list(caps);
  SegmentedList::AccessResult r;
  std::vector<BlockId> ref;  // front = MRU

  auto ref_segment = [&](std::size_t pos) {
    std::size_t acc = 0;
    for (std::size_t s = 0; s < caps.size(); ++s) {
      acc += caps[s];
      if (pos < acc) return s;
    }
    return caps.size();
  };

  for (int step = 0; step < 3000; ++step) {
    const BlockId b = rng.next_below(static_cast<std::uint64_t>(total * 2));
    const auto it = std::find(ref.begin(), ref.end(), b);
    const bool expect_hit = it != ref.end();
    const std::size_t expect_seg =
        expect_hit ? ref_segment(static_cast<std::size_t>(it - ref.begin())) : 0;
    if (expect_hit) ref.erase(std::find(ref.begin(), ref.end(), b));
    ref.insert(ref.begin(), b);
    bool expect_evict = false;
    BlockId expect_victim = 0;
    if (ref.size() > total) {
      expect_evict = true;
      expect_victim = ref.back();
      ref.pop_back();
    }

    list.access(b, r);
    ASSERT_EQ(r.hit, expect_hit);
    if (expect_hit) {
      ASSERT_EQ(r.old_segment, expect_seg);
    }
    ASSERT_EQ(!r.evicted.empty(), expect_evict);
    if (expect_evict) {
      ASSERT_EQ(r.evicted.size(), 1u);
      ASSERT_EQ(r.evicted[0], expect_victim);
    }
    // Segment assignment must match positional segmentation.
    if (step % 100 == 0) {
      ASSERT_TRUE(list.check_consistency());
      for (std::size_t pos = 0; pos < ref.size(); ++pos)
        ASSERT_EQ(list.segment_of(ref[pos]), ref_segment(pos));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SegmentedListRandomTest,
    ::testing::Combine(::testing::Values(3, 7, 11, 19),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{5})));

// ---- SegmentedList against a std::list reference ----

// Each key carries its segment label explicitly; a segment's LRU-most key is
// found by scanning from the tail. Same semantics as SegmentedList, written
// the slow, obvious way.
class ListReference {
 public:
  explicit ListReference(std::vector<std::size_t> caps)
      : caps_(std::move(caps)), bytes_(caps_.size(), 0) {}

  void access(std::uint64_t key, SegmentedList::AccessResult& out,
              SegmentedList::SizeUnits size) {
    reset(out);
    auto it = find(key);
    if (it != entries_.end()) {
      out.hit = true;
      out.old_segment = it->segment;
      if (it->segment == 0 && it == entries_.begin()) return;
      Entry e = *it;
      bytes_[e.segment] -= e.size;
      entries_.erase(it);
      e.segment = 0;
      entries_.push_front(e);
    } else {
      entries_.push_front(Entry{key, size, 0});
    }
    bytes_[0] += entries_.front().size;
    for (std::size_t s = 0; s < caps_.size(); ++s) {
      while (bytes_[s] > caps_[s]) {
        auto last = std::prev(entries_.end());
        while (last->segment != s) --last;
        bytes_[s] -= last->size;
        if (s + 1 < caps_.size()) {
          out.crossed.push_back(SegmentedList::Crossing{s, last->key, last->size});
          last->segment = s + 1;
          bytes_[s + 1] += last->size;
        } else {
          out.evicted.push_back(last->key);
          entries_.erase(last);
        }
      }
    }
  }

  bool remove(std::uint64_t key, SegmentedList::AccessResult& out) {
    reset(out);
    auto it = find(key);
    if (it == entries_.end()) return false;
    out.old_segment = it->segment;
    bytes_[it->segment] -= it->size;
    entries_.erase(it);
    return true;
  }

  std::size_t size() const { return entries_.size(); }
  std::uint64_t segment_bytes(std::size_t s) const { return bytes_[s]; }
  std::size_t segment_of(std::uint64_t key) const {
    for (const Entry& e : entries_)
      if (e.key == key) return e.segment;
    return SegmentedList::kNoSegment;
  }

 private:
  struct Entry {
    std::uint64_t key;
    SegmentedList::SizeUnits size;
    std::size_t segment;
  };

  static void reset(SegmentedList::AccessResult& out) {
    out.hit = false;
    out.old_segment = SegmentedList::kNoSegment;
    out.crossed.clear();
    out.evicted.clear();
  }
  std::list<Entry>::iterator find(std::uint64_t key) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [key](const Entry& e) { return e.key == key; });
  }

  std::vector<std::size_t> caps_;
  std::vector<std::uint64_t> bytes_;
  std::list<Entry> entries_;  // front = MRU
};

void expect_same_result(const SegmentedList::AccessResult& a,
                        const SegmentedList::AccessResult& b, const std::string& at) {
  ASSERT_EQ(a.hit, b.hit) << at;
  ASSERT_EQ(a.old_segment, b.old_segment) << at;
  ASSERT_EQ(a.crossed.size(), b.crossed.size()) << at;
  for (std::size_t i = 0; i < a.crossed.size(); ++i) {
    ASSERT_EQ(a.crossed[i].from, b.crossed[i].from) << at;
    ASSERT_EQ(a.crossed[i].key, b.crossed[i].key) << at;
    ASSERT_EQ(a.crossed[i].size, b.crossed[i].size) << at;
  }
  ASSERT_EQ(a.evicted, b.evicted) << at;
}

// Random churn over ~2x the budget's worth of keys, one remove() in ten.
// With max_size > 1 the keys get sizes in [1, max_size] (fixed per key, as a
// block's footprint is), and a few exceed the whole budget.
void churn_against_reference(std::uint64_t seed, std::vector<std::size_t> caps,
                             SegmentedList::SizeUnits max_size, int steps) {
  Rng rng(seed);
  std::uint64_t total = 0;
  for (std::size_t c : caps) total += c;
  SegmentedList list(caps);
  ListReference ref(caps);
  SegmentedList::AccessResult got, want;
  const std::uint64_t keys = 2 * total / ((max_size + 1) / 2) + 2;
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t key = rng.next_below(keys);
    const std::string at = "seed " + std::to_string(seed) + " step " + std::to_string(step);
    if (rng.next_below(10) == 0) {
      ASSERT_EQ(list.remove(key, got), ref.remove(key, want)) << at;
    } else {
      const auto size = static_cast<SegmentedList::SizeUnits>(
          max_size == 1 ? 1 : 1 + (key * 2654435761u) % (key % 50 == 0 ? total + 2 : max_size));
      list.access(key, got, size);
      ref.access(key, want, size);
    }
    expect_same_result(got, want, at);
    ASSERT_TRUE(list.check_consistency()) << at;
    ASSERT_EQ(list.size(), ref.size()) << at;
    for (std::size_t s = 0; s < caps.size(); ++s)
      ASSERT_EQ(list.segment_bytes(s), ref.segment_bytes(s)) << at;
    if (step % 97 == 0) {
      for (std::uint64_t k = 0; k < keys; ++k)
        ASSERT_EQ(list.segment_of(k), ref.segment_of(k)) << at << " key " << k;
    }
  }
}

TEST(SegmentedListOracle, UnitSizeChurnMatchesListReference) {
  churn_against_reference(1, {8}, 1, 4000);
  churn_against_reference(2, {4, 8, 16}, 1, 6000);
  churn_against_reference(3, {1, 1, 1, 1}, 1, 3000);
  churn_against_reference(4, {32, 64}, 1, 8000);
}

TEST(SegmentedListOracle, SizedChurnMatchesListReference) {
  churn_against_reference(5, {16}, 4, 4000);
  churn_against_reference(6, {8, 16, 32}, 5, 6000);
  churn_against_reference(7, {3, 5, 7}, 3, 6000);
  churn_against_reference(8, {64, 64}, 9, 8000);
}

TEST(SegmentedListOracle, HugeByteBudgetDoesNotPreallocateInProportion) {
  const std::size_t huge = std::size_t{1} << 40;
  SegmentedList list({huge, huge, huge});
  // Capped at 2^20 nodes (plus page rounding), not ~3 * 2^40.
  EXPECT_LE(list.reserved_nodes(), (std::size_t{1} << 20) + 1024);
  SegmentedList::AccessResult r;
  for (std::uint64_t k = 0; k < 1000; ++k) list.access(k, r, 1u << 20);
  EXPECT_EQ(list.size(), 1000u);
  EXPECT_TRUE(list.check_consistency());
  // A small budget is pre-sized to hold all of it.
  EXPECT_GE(SegmentedList({100, 200}).reserved_nodes(), 301u);
}

}  // namespace
}  // namespace ulc
