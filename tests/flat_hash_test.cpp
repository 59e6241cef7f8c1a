#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/flat_hash.h"

namespace ulc {
namespace {

TEST(FlatMap, EmptyAnswersEveryQuery) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.bucket_count(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.contains(7));
  EXPECT_FALSE(m.erase(7));
}

TEST(FlatMap, InsertFindEraseRoundTrip) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  m.insert_new(1, 10);
  m.insert_new(2, 20);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10u);
  EXPECT_EQ(*m.find(2), 20u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, PutOverwritesInPlace) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  m.put(5, 1);
  m.put(5, 2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(5), 2u);
}

TEST(FlatMap, InsertNewOfPresentKeyDies) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  m.insert_new(5, 1);
  EXPECT_DEATH(m.insert_new(5, 2), "insert_new of a present key");
}

// A slot freed by erase() must be reusable: steady-state erase/insert cycles
// (every cache eviction is one) may not grow the table without bound.
TEST(FlatMap, TombstoneSlotsAreReusedWithoutGrowth) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  m.reserve(64);
  const std::size_t buckets = m.bucket_count();
  // Churn far more keys than the table has buckets through a bounded live
  // set; the tombstone purge on rehash keeps the table at its reserved size.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    m.insert_new(i, static_cast<std::uint32_t>(i));
    if (i >= 32) {
      EXPECT_TRUE(m.erase(i - 32));
    }
  }
  EXPECT_EQ(m.size(), 32u);
  EXPECT_EQ(m.bucket_count(), buckets);
  for (std::uint64_t i = 10000 - 32; i < 10000; ++i) {
    ASSERT_NE(m.find(i), nullptr) << i;
    EXPECT_EQ(*m.find(i), static_cast<std::uint32_t>(i));
  }
}

TEST(FlatMap, GrowsAtHighLoadFactorAndKeepsEveryKey) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  const std::uint64_t n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) m.insert_new(i * 977, i);
  EXPECT_EQ(m.size(), n);
  // Power-of-two table under 7/8 load.
  const std::size_t b = m.bucket_count();
  EXPECT_EQ(b & (b - 1), 0u);
  EXPECT_LE((n + 1) * 8, b * 7 + 8);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_NE(m.find(i * 977), nullptr) << i;
    EXPECT_EQ(*m.find(i * 977), i);
  }
  EXPECT_GT(m.rehashes(), 0u);
}

TEST(FlatMap, ReserveThenFillNeverRehashes) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  m.reserve(1000);
  const std::size_t buckets = m.bucket_count();
  for (std::uint64_t i = 0; i < 1000; ++i) m.insert_new(i, 0);
  EXPECT_EQ(m.rehashes(), 0u);
  EXPECT_EQ(m.bucket_count(), buckets);
}

// The determinism contract: two maps over the same key set answer every
// query identically no matter the insertion/erasure history that built them.
// (FlatMap has no iteration API, so queries are the whole surface.)
TEST(FlatMap, QueriesAgreeAcrossInsertionOrders) {
  FlatMap<std::uint64_t, std::uint64_t> a;
  FlatMap<std::uint64_t, std::uint64_t> b;
  const std::uint64_t n = 512;
  for (std::uint64_t i = 0; i < n; ++i) a.insert_new(i * 31, i);
  // b: reverse order, with extra churn that ends at the same key set.
  for (std::uint64_t i = n; i-- > 0;) b.insert_new(i * 31, i);
  for (std::uint64_t i = 0; i < n; i += 2) EXPECT_TRUE(b.erase(i * 31));
  for (std::uint64_t i = 0; i < n; i += 2) b.insert_new(i * 31, i);
  EXPECT_EQ(a.size(), b.size());
  for (std::uint64_t k = 0; k < n * 31 + 7; ++k) {
    const std::uint64_t* va = a.find(k);
    const std::uint64_t* vb = b.find(k);
    ASSERT_EQ(va == nullptr, vb == nullptr) << k;
    if (va != nullptr) {
      EXPECT_EQ(*va, *vb);
    }
  }
}

TEST(FlatMap, ClearResetsToEmpty) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  for (std::uint64_t i = 0; i < 100; ++i) m.insert_new(i, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.bucket_count(), 0u);
  EXPECT_EQ(m.rehashes(), 0u);
  EXPECT_FALSE(m.contains(3));
  m.insert_new(3, 9);
  EXPECT_EQ(*m.find(3), 9u);
}

// ---- Load-factor boundary pins ----
//
// The growth trigger fires pre-insert when (size + tombstones + 1) * 8 >
// buckets * 7; on a tombstone-free organic fill that is exactly size ==
// 7*buckets/8. Pinning the full growth chain keeps the SIMD rewrite honest
// about "same rehash points as the byte-probed original".
TEST(FlatMap, OrganicGrowthRehashesAtExactSevenEighthsBoundaries) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  std::vector<std::size_t> growth_sizes;  // size() at the moment of a rehash
  std::uint64_t seen = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    m.insert_new(i * 2654435761ull, 0);
    if (m.rehashes() != seen) {
      seen = m.rehashes();
      growth_sizes.push_back(m.size() - 1);  // trigger fired pre-insert
    }
  }
  EXPECT_EQ(growth_sizes,
            (std::vector<std::size_t>{14, 28, 56, 112, 224, 448, 896}));
}

// reserve(n) followed by n inserts must never rehash, including exactly at
// the 7/8 trigger values n = 7*2^k/8 and one either side of them.
TEST(FlatMap, ReserveBoundaryValuesNeverRehash) {
  for (std::size_t cap = 16; cap <= 4096; cap <<= 1) {
    const std::size_t t = cap / 8 * 7;
    for (const std::size_t n : {t - 1, t, t + 1}) {
      FlatMap<std::uint64_t, std::uint32_t> m;
      m.reserve(n);
      const std::size_t buckets = m.bucket_count();
      for (std::uint64_t i = 0; i < n; ++i)
        m.insert_new(i * 0x9e3779b97f4a7c15ull, 1);
      EXPECT_EQ(m.rehashes(), 0u) << "cap=" << cap << " n=" << n;
      EXPECT_EQ(m.bucket_count(), buckets) << "cap=" << cap << " n=" << n;
      EXPECT_EQ(m.size(), n);
    }
  }
}

// ---- SIMD vs scalar differential fuzz ----
//
// The portable Group16Scalar loop is the reference semantics; the platform
// SIMD policy (Group16 — SSE2 here, NEON on AArch64, scalar again when
// forced) must reproduce every query answer AND every rehash point
// bit-for-bit under a tombstone-heavy seed-driven churn. Both instantiations
// live in this one binary, so the agreement is checked on every platform and
// under every sanitizer job, not just in the ULC_FORCE_SCALAR_GROUPS build.
template <typename Group>
using MapOf = FlatMap<std::uint64_t, std::uint64_t, Group>;

struct FuzzRng {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
};

template <typename A, typename B>
void expect_maps_agree(A& a, B& b, std::uint64_t key_space,
                       const char* when) {
  ASSERT_EQ(a.size(), b.size()) << when;
  ASSERT_EQ(a.bucket_count(), b.bucket_count()) << when;
  ASSERT_EQ(a.rehashes(), b.rehashes()) << when;
  for (std::uint64_t k = 0; k < key_space; ++k) {
    const std::uint64_t* va = a.find(k);
    const std::uint64_t* vb = b.find(k);
    ASSERT_EQ(va == nullptr, vb == nullptr) << when << " key " << k;
    if (va != nullptr) {
      ASSERT_EQ(*va, *vb) << when << " key " << k;
    }
  }
}

TEST(FlatMapDifferential, SimdMatchesScalarUnderTombstoneHeavyChurn) {
  constexpr std::uint64_t kKeySpace = 512;
  // Three insertion orders for the initial fill: ascending, descending, and
  // a multiplicative shuffle — distinct probe-layout histories that must
  // all end bit-compatible.
  for (int order = 0; order < 3; ++order) {
    MapOf<Group16> simd;
    MapOf<Group16Scalar> scalar;
    for (std::uint64_t i = 0; i < kKeySpace / 2; ++i) {
      std::uint64_t k;
      switch (order) {
        case 0: k = i; break;
        case 1: k = kKeySpace / 2 - 1 - i; break;
        default: k = (i * 181) % (kKeySpace / 2);
      }
      simd.insert_new(k, k * 3);
      scalar.insert_new(k, k * 3);
    }
    expect_maps_agree(simd, scalar, kKeySpace, "after fill");

    // Churn: erase-biased mix keeps tombstones plentiful; put() overwrites
    // exercise the found path.
    FuzzRng rng{0xabcdef12u + static_cast<std::uint64_t>(order)};
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t k = rng.next() % kKeySpace;
      switch (rng.next() % 4) {
        case 0: {
          const bool ea = simd.erase(k);
          const bool eb = scalar.erase(k);
          ASSERT_EQ(ea, eb) << "erase step " << step;
          break;
        }
        case 1: {
          simd.put(k, static_cast<std::uint64_t>(step));
          scalar.put(k, static_cast<std::uint64_t>(step));
          break;
        }
        case 2: {
          if (simd.find(k) == nullptr) {
            simd.insert_new(k, k);
            scalar.insert_new(k, k);
          }
          break;
        }
        default: {
          const std::uint64_t* va = simd.find(k);
          const std::uint64_t* vb = scalar.find(k);
          ASSERT_EQ(va == nullptr, vb == nullptr) << "find step " << step;
          if (va != nullptr) {
            ASSERT_EQ(*va, *vb) << "find step " << step;
          }
        }
      }
      ASSERT_EQ(simd.rehashes(), scalar.rehashes()) << "step " << step;
    }
    expect_maps_agree(simd, scalar, kKeySpace, "after churn");
  }
}

TEST(FlatMapDifferential, ReserveAndClearAgree) {
  MapOf<Group16> simd;
  MapOf<Group16Scalar> scalar;
  simd.reserve(300);
  scalar.reserve(300);
  for (std::uint64_t i = 0; i < 300; ++i) {
    simd.insert_new(i * 7919, i);
    scalar.insert_new(i * 7919, i);
  }
  expect_maps_agree(simd, scalar, 300 * 7919 + 1, "reserved fill");
  simd.clear();
  scalar.clear();
  EXPECT_EQ(simd.bucket_count(), scalar.bucket_count());
  EXPECT_EQ(simd.size(), scalar.size());
}

TEST(SplitMix64, MixesAdjacentKeysApart) {
  // Not a statistical test — just pins that the finalizer is wired in (the
  // identity hash would map adjacent block ids to adjacent buckets).
  EXPECT_NE(splitmix64_mix(1) + 1, splitmix64_mix(2));
  EXPECT_NE(splitmix64_mix(0), 0u);
}

}  // namespace
}  // namespace ulc
