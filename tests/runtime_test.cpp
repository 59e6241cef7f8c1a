// The embeddable runtime: data integrity through the two-tier cache under
// every placement path, against a plain map reference — plus file-backed
// tiers and a multi-threaded stress run.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include <algorithm>
#include <atomic>

#include "proto/journal.h"
#include "runtime/block_cache.h"
#include "runtime/sharded_cache.h"
#include "runtime/tier.h"
#include "util/prng.h"
#include "workloads/streaming.h"
#include "workloads/synthetic.h"

namespace ulc {
namespace {

constexpr std::size_t kBlock = 512;  // small blocks keep tests quick

std::vector<std::byte> pattern(BlockId block, std::uint64_t version) {
  std::vector<std::byte> out(kBlock);
  SplitMix64 sm(block * 1000003 + version);
  for (std::size_t i = 0; i < kBlock; i += 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(&out[i], &v, std::min<std::size_t>(8, kBlock - i));
  }
  return out;
}

TEST(Tiers, MemoryNearTierStoresAndEvicts) {
  auto tier = make_memory_near_tier(4, kBlock);
  const auto data = pattern(7, 1);
  tier->store(7, data);
  std::vector<std::byte> out(kBlock);
  ASSERT_TRUE(tier->fetch(7, out));
  EXPECT_EQ(std::memcmp(out.data(), data.data(), kBlock), 0);
  tier->evict(7);
  EXPECT_FALSE(tier->fetch(7, out));
}

TEST(Tiers, PinsAreRefcountedAndGateEviction) {
  auto tier = make_memory_near_tier(4, kBlock);
  tier->store(9, pattern(9, 1));
  tier->pin(9);
  tier->pin(9);  // pins nest: two writers may hold the block at once
  EXPECT_EQ(tier->pin_count(9), 2u);
  tier->unpin(9);
  EXPECT_EQ(tier->pin_count(9), 1u);
  tier->unpin(9);
  EXPECT_EQ(tier->pin_count(9), 0u);
  tier->evict(9);  // every pin released: eviction proceeds
  std::vector<std::byte> out(kBlock);
  EXPECT_FALSE(tier->fetch(9, out));
}

TEST(TierPinDeathTest, EvictingAPinnedBlockAborts) {
  auto tier = make_memory_near_tier(4, kBlock);
  tier->store(7, pattern(7, 1));
  tier->pin(7);
  EXPECT_DEATH(tier->evict(7), "pinned");
}

TEST(TierPinDeathTest, UnpinWithoutPinAborts) {
  auto tier = make_memory_near_tier(4, kBlock);
  EXPECT_DEATH(tier->unpin(3), "no pin");
}

TEST(Tiers, MemoryOriginZeroFills) {
  auto origin = make_memory_origin(kBlock);
  std::vector<std::byte> out(kBlock, std::byte{0xff});
  origin->read(42, out);
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(Tiers, FileTiersRoundTrip) {
  const std::string near_path = ::testing::TempDir() + "/ulc_near.img";
  const std::string origin_path = ::testing::TempDir() + "/ulc_origin.img";
  std::remove(near_path.c_str());
  std::remove(origin_path.c_str());
  {
    auto near = make_file_near_tier(near_path, 8, kBlock);
    auto origin = make_file_origin(origin_path, kBlock);
    const auto a = pattern(1, 1);
    const auto b = pattern(2, 1);
    near->store(1, a);
    near->store(2, b);
    origin->write(5, a);
    std::vector<std::byte> out(kBlock);
    ASSERT_TRUE(near->fetch(1, out));
    EXPECT_EQ(std::memcmp(out.data(), a.data(), kBlock), 0);
    ASSERT_TRUE(near->fetch(2, out));
    EXPECT_EQ(std::memcmp(out.data(), b.data(), kBlock), 0);
    near->evict(1);
    EXPECT_FALSE(near->fetch(1, out));
    near->store(3, a);  // reuses the freed slot
    ASSERT_TRUE(near->fetch(3, out));
    origin->read(5, out);
    EXPECT_EQ(std::memcmp(out.data(), a.data(), kBlock), 0);
    origin->read(999, out);
    for (std::byte byte : out) EXPECT_EQ(byte, std::byte{0});
  }
  std::remove(near_path.c_str());
  std::remove(origin_path.c_str());
}

TEST(BlockCache, ReadThroughAndPromotion) {
  auto near = make_memory_near_tier(16, kBlock);
  auto origin = make_memory_origin(kBlock);
  const auto seed = pattern(3, 9);
  origin->write(3, seed);
  BlockCache cache(BlockCacheConfig{kBlock, 8}, *near, *origin);
  std::vector<std::byte> out(kBlock);
  cache.read(3, out);
  EXPECT_EQ(std::memcmp(out.data(), seed.data(), kBlock), 0);
  EXPECT_EQ(cache.stats().origin_reads, 1u);
  cache.read(3, out);  // now cached somewhere
  EXPECT_EQ(cache.stats().origin_reads, 1u);
  EXPECT_EQ(std::memcmp(out.data(), seed.data(), kBlock), 0);
}

TEST(BlockCache, WritesSurviveFlushToOrigin) {
  auto near = make_memory_near_tier(16, kBlock);
  auto origin = make_memory_origin(kBlock);
  {
    BlockCache cache(BlockCacheConfig{kBlock, 8}, *near, *origin);
    for (BlockId b = 0; b < 40; ++b) cache.write(b, pattern(b, 5));
    cache.flush();
  }
  std::vector<std::byte> out(kBlock);
  for (BlockId b = 0; b < 40; ++b) {
    origin->read(b, out);
    const auto want = pattern(b, 5);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0) << "block " << b;
  }
}

TEST(BlockCache, DestructorFlushes) {
  auto near = make_memory_near_tier(4, kBlock);
  auto origin = make_memory_origin(kBlock);
  {
    BlockCache cache(BlockCacheConfig{kBlock, 4}, *near, *origin);
    cache.write(1, pattern(1, 2));
  }  // ~BlockCache flushes
  std::vector<std::byte> out(kBlock);
  origin->read(1, out);
  const auto want = pattern(1, 2);
  EXPECT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0);
}

// Integrity under churn: every read must observe the latest write, across
// promotions, demotions, discards and write-backs.
class BlockCacheIntegrityTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockCacheIntegrityTest, ReadsAlwaysSeeLatestWrite) {
  auto near = make_memory_near_tier(24, kBlock);
  auto origin = make_memory_origin(kBlock);
  BlockCache cache(BlockCacheConfig{kBlock, 12}, *near, *origin);

  PatternPtr src;
  switch (GetParam()) {
    case 0:
      src = make_uniform_source(0, 200);
      break;
    case 1:
      src = make_zipf_source(0, 200, 1.0, true, 5);
      break;
    default:
      src = make_loop_source(0, 60);
      break;
  }
  Rng rng(77);
  std::map<BlockId, std::uint64_t> version;  // reference model
  std::vector<std::byte> out(kBlock);
  for (int i = 0; i < 8000; ++i) {
    const BlockId b = src->next(rng);
    if (rng.next_bool(0.35)) {
      const std::uint64_t v = ++version[b];
      cache.write(b, pattern(b, v));
    } else {
      cache.read(b, out);
      const auto want = pattern(b, version.count(b) ? version[b] : 0);
      // Version 0 = never written: origin zero-fills; pattern(b, 0) is not
      // zeroes, so handle that case separately.
      if (version.count(b)) {
        ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0)
            << "step " << i << " block " << b;
      } else {
        for (std::byte byte : out) ASSERT_EQ(byte, std::byte{0});
      }
    }
  }
  // Everything dirty reaches the origin on flush.
  cache.flush();
  for (const auto& [b, v] : version) {
    origin->read(b, out);
    const auto want = pattern(b, v);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0) << "block " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, BlockCacheIntegrityTest,
                         ::testing::Values(0, 1, 2));

TEST(BlockCache, StatsAccounting) {
  auto near = make_memory_near_tier(8, kBlock);
  auto origin = make_memory_origin(kBlock);
  BlockCache cache(BlockCacheConfig{kBlock, 4}, *near, *origin);
  std::vector<std::byte> out(kBlock);
  for (BlockId b = 0; b < 4; ++b) cache.read(b, out);  // fill RAM tier
  for (BlockId b = 0; b < 4; ++b) cache.read(b, out);  // RAM hits
  const BlockCacheStats s = cache.stats();
  EXPECT_EQ(s.reads, 8u);
  EXPECT_EQ(s.origin_reads, 4u);
  EXPECT_EQ(s.memory_hits, 4u);
}

TEST(BlockCache, ConcurrentDisjointWriters) {
  auto near = make_memory_near_tier(64, kBlock);
  auto origin = make_memory_origin(kBlock);
  BlockCache cache(BlockCacheConfig{kBlock, 32}, *near, *origin);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 3000;
  constexpr BlockId kRange = 100;  // per-thread block range

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(1000 + t);
      std::vector<std::byte> out(kBlock);
      std::map<BlockId, std::uint64_t> version;
      const BlockId base = static_cast<BlockId>(t) * 10000;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const BlockId b = base + rng.next_below(kRange);
        if (rng.next_bool(0.4)) {
          cache.write(b, pattern(b, ++version[b]));
        } else {
          cache.read(b, out);
          if (version.count(b)) {
            const auto want = pattern(b, version[b]);
            ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const BlockCacheStats s = cache.stats();
  EXPECT_EQ(s.reads + s.writes,
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
}

TEST(BlockCache, FileBackedEndToEnd) {
  const std::string near_path = ::testing::TempDir() + "/ulc_bc_near.img";
  const std::string origin_path = ::testing::TempDir() + "/ulc_bc_origin.img";
  std::remove(near_path.c_str());
  std::remove(origin_path.c_str());
  {
    auto near = make_file_near_tier(near_path, 16, kBlock);
    auto origin = make_file_origin(origin_path, kBlock);
    BlockCache cache(BlockCacheConfig{kBlock, 8}, *near, *origin);
    std::vector<std::byte> out(kBlock);
    for (BlockId b = 0; b < 60; ++b) cache.write(b, pattern(b, 3));
    for (BlockId b = 0; b < 60; ++b) {
      cache.read(b, out);
      const auto want = pattern(b, 3);
      ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0) << b;
    }
  }
  // Data persisted through the file origin.
  auto origin = make_file_origin(origin_path, kBlock);
  std::vector<std::byte> out(kBlock);
  for (BlockId b = 0; b < 60; ++b) {
    origin->read(b, out);
    const auto want = pattern(b, 3);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0) << b;
  }
  std::remove(near_path.c_str());
  std::remove(origin_path.c_str());
}

TEST(BlockCache, FlushIsIdempotent) {
  auto near = make_memory_near_tier(8, kBlock);
  auto origin = make_memory_origin(kBlock);
  BlockCache cache(BlockCacheConfig{kBlock, 4}, *near, *origin);
  cache.write(1, pattern(1, 1));
  cache.flush();
  const std::uint64_t after_first = cache.stats().writebacks;
  cache.flush();  // nothing dirty: no additional write-backs
  EXPECT_EQ(cache.stats().writebacks, after_first);
  // Re-dirty and flush again.
  cache.write(1, pattern(1, 2));
  cache.flush();
  EXPECT_EQ(cache.stats().writebacks, after_first + 1);
  std::vector<std::byte> out(kBlock);
  origin->read(1, out);
  const auto want = pattern(1, 2);
  EXPECT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0);
}

TEST(BlockCache, JournalRecordsTheFullWritebackPipeline) {
  auto near = make_memory_near_tier(16, kBlock);
  auto origin = make_memory_origin(kBlock);
  // Declared before the cache so ~BlockCache's flush still finds it.
  WritebackJournal journal(WritebackJournal::Mode::kManual);
  BlockCache cache(BlockCacheConfig{kBlock, 8}, *near, *origin);
  cache.set_writeback_journal(&journal);
  // 60 blocks through 8 RAM buffers + 16 near slots: demotions, discards
  // and straight-through writes all reach the origin via the journal.
  for (BlockId b = 0; b < 60; ++b) cache.write(b, pattern(b, 5));
  cache.flush();
  const JournalStats js = journal.stats();
  EXPECT_GT(js.appended, 0u);
  EXPECT_EQ(js.appended, cache.stats().writebacks);
  EXPECT_EQ(js.acked, js.appended);
  EXPECT_EQ(js.lost_unacked, 0u);
  std::string why;
  EXPECT_TRUE(journal.laws_hold(why)) << why;
}

// FNV-1a over 64-bit words: a stable fingerprint for recorded sequences.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct RecordingListener final : PlacementListener {
  Fnv64 events;
  std::uint64_t count = 0;
  void on_placement(const PlacementEvent& e) override {
    events.add(e.block);
    events.add(e.shard);
    events.add(static_cast<std::uint64_t>(e.kind));
    ++count;
  }
};

// Forwards to a memory origin and fingerprints the write sequence: which
// block, in which order, carrying which bytes.
class FingerprintOrigin final : public Origin {
 public:
  explicit FingerprintOrigin(Origin& inner) : inner_(inner) {}
  void read(BlockId block, std::span<std::byte> out) override {
    inner_.read(block, out);
  }
  void write(BlockId block, std::span<const std::byte> data) override {
    writes.add(block);
    for (std::size_t i = 0; i < kBlock; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, data.data() + i, 8);
      writes.add(word);
    }
    ++count;
    inner_.write(block, data);
  }
  Fnv64 writes;
  std::uint64_t count = 0;

 private:
  Origin& inner_;
};

// Pins the cache's placement behaviour: a seeded single-thread churn run
// must reproduce an exact placement-event stream and origin write sequence.
// Any change in which block lands where, or when dirty data reaches the
// origin, changes one of the two fingerprints; a change to how block state
// is stored must change neither.
TEST(BlockCache, PlacementStreamIsPinnedUnderChurn) {
  constexpr std::size_t kRam = 8;
  constexpr std::size_t kNear = 16;
  constexpr BlockId kFootprint = 64;
  auto near = make_memory_near_tier(kNear, kBlock);
  auto backing = make_memory_origin(kBlock);
  FingerprintOrigin origin(*backing);
  RecordingListener listener;
  std::map<BlockId, std::uint64_t> version;  // reference model
  {
    BlockCache cache(BlockCacheConfig{kBlock, kRam}, *near, origin);
    cache.set_placement_listener(&listener, 3);
    PatternPtr src = make_zipf_source(0, kFootprint, 0.8, true, 11);
    Rng rng(2024);
    std::vector<std::byte> out(kBlock);
    for (int i = 1; i <= 20000; ++i) {
      const BlockId b = src->next(rng);
      if (rng.next_bool(0.3)) {
        cache.write(b, pattern(b, ++version[b]));
      } else {
        cache.read(b, out);
        auto it = version.find(b);
        if (it != version.end()) {
          const auto want = pattern(b, it->second);
          ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0)
              << "step " << i << " block " << b;
        } else {
          for (std::byte byte : out) ASSERT_EQ(byte, std::byte{0}) << i;
        }
      }
      std::size_t resident = 0;
      for (BlockId r = 0; r < kFootprint; ++r)
        resident += cache.resident_in_memory(r) ? 1 : 0;
      ASSERT_LE(resident, kRam) << "step " << i;
      if (i % 1000 == 0) cache.flush();
    }
    cache.set_placement_listener(nullptr, 0);
  }
  // Recorded with the hash-map-backed cache; the descriptor table matches.
  EXPECT_EQ(listener.count, 13111u);
  EXPECT_EQ(listener.events.h, 0xcac6554622977e2eULL);
  EXPECT_EQ(origin.count, 3011u);
  EXPECT_EQ(origin.writes.h, 0xf532dfa569ff6f58ULL);
}

TEST(ShardedCache, IntegrityAcrossShards) {
  auto origin = make_memory_origin(kBlock);
  auto sync_origin = make_synchronized_origin(*origin);
  BlockCacheConfig cfg{kBlock, 8};
  ShardedBlockCache cache(
      cfg, 4, [](std::size_t) { return make_memory_near_tier(16, kBlock); },
      *sync_origin);
  std::vector<std::byte> out(kBlock);
  for (BlockId b = 0; b < 120; ++b) cache.write(b, pattern(b, 4));
  for (BlockId b = 0; b < 120; ++b) {
    cache.read(b, out);
    const auto want = pattern(b, 4);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0) << b;
  }
  cache.flush();
  for (BlockId b = 0; b < 120; ++b) {
    origin->read(b, out);
    const auto want = pattern(b, 4);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0) << b;
  }
  const BlockCacheStats s = cache.stats();
  EXPECT_EQ(s.reads + s.writes, 240u);
}

TEST(ShardedCache, ConcurrentMixedTraffic) {
  auto origin = make_memory_origin(kBlock);
  auto sync_origin = make_synchronized_origin(*origin);
  BlockCacheConfig cfg{kBlock, 16};
  ShardedBlockCache cache(
      cfg, 4, [](std::size_t) { return make_memory_near_tier(32, kBlock); },
      *sync_origin);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(500 + t);
      std::vector<std::byte> out(kBlock);
      std::map<BlockId, std::uint64_t> version;
      const BlockId base = static_cast<BlockId>(t) * 100000;
      for (int i = 0; i < 2500; ++i) {
        const BlockId b = base + rng.next_below(80);
        if (rng.next_bool(0.4)) {
          cache.write(b, pattern(b, ++version[b]));
        } else {
          cache.read(b, out);
          if (version.count(b)) {
            const auto want = pattern(b, version[b]);
            ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.stats().reads + cache.stats().writes, 4u * 2500u);
}

TEST(ShardedCache, HitRateParityWithSingleShardOnUncorrelatedLoad) {
  // Zipf ids are uncorrelated with the shard hash, so 4 shards of 1/4 the
  // capacity should hit within a few points of one big shard.
  auto src = make_zipf_source(0, 400, 1.0, true, 9);
  Rng rng(3);
  std::vector<BlockId> refs;
  for (int i = 0; i < 20000; ++i) refs.push_back(src->next(rng));

  auto run = [&](std::size_t shards, std::size_t mem_per, std::size_t near_per) {
    auto origin = make_memory_origin(kBlock);
    auto sync = make_synchronized_origin(*origin);
    ShardedBlockCache cache(
        BlockCacheConfig{kBlock, mem_per}, shards,
        [&](std::size_t) { return make_memory_near_tier(near_per, kBlock); },
        *sync);
    std::vector<std::byte> out(kBlock);
    for (BlockId b : refs) cache.read(b, out);
    const BlockCacheStats s = cache.stats();
    return 1.0 - static_cast<double>(s.origin_reads) / static_cast<double>(s.reads);
  };
  const double one = run(1, 64, 128);
  const double four = run(4, 16, 32);
  EXPECT_NEAR(four, one, 0.05);
}

// Regression for the stats() torn-read bug: aggregating per-shard counters
// while reader/writer threads mutate them. The counters are now relaxed
// atomics, so a concurrent stats() poller must be race-free (this test is in
// the TSan CI job) and each counter must be monotone between polls.
TEST(ShardedCache, StatsAreTearFreeUnderConcurrentTraffic) {
  auto origin = make_memory_origin(kBlock);
  auto sync_origin = make_synchronized_origin(*origin);
  ShardedBlockCache cache(
      BlockCacheConfig{kBlock, 16}, 4,
      [](std::size_t) { return make_memory_near_tier(32, kBlock); },
      *sync_origin);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    std::uint64_t last_ops = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const BlockCacheStats s = cache.stats();
      const std::uint64_t ops = s.reads + s.writes;
      ASSERT_GE(ops, last_ops);
      ASSERT_LE(s.memory_hits + s.near_hits + s.origin_reads, ops);
      last_ops = ops;
    }
  });

  constexpr int kThreads = 3;
  constexpr int kOps = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      Rng rng(77 + t);
      std::vector<std::byte> out(kBlock);
      for (int i = 0; i < kOps; ++i) {
        const BlockId b = rng.next_below(300);
        if (rng.next_bool(0.3)) {
          cache.write(b, pattern(b, 1));
        } else {
          cache.read(b, out);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_EQ(cache.stats().reads + cache.stats().writes,
            static_cast<std::uint64_t>(kThreads * kOps));
}

// Regression for the raw-bit shard routing bug: the streaming catalogue is
// laid out as sequential runs of segment ids, exactly the structured id
// space that piled onto a few shards before routing went through the
// splitmix64 finalizer. Pin the balance over the whole catalogue footprint
// and over a generated reference stream, at several shard counts.
TEST(ShardedCache, StreamingWorkloadBalancesAcrossShards) {
  StreamingConfig wl;
  wl.n_titles = 400;
  wl.layout_seed = 11;
  const std::uint64_t footprint = streaming_footprint(wl);
  ASSERT_GT(footprint, 4000u);

  for (std::size_t shards : {2u, 4u, 8u}) {
    auto origin = make_memory_origin(kBlock);
    auto sync_origin = make_synchronized_origin(*origin);
    ShardedBlockCache cache(
        BlockCacheConfig{kBlock, 1}, shards,
        [](std::size_t) { return make_memory_near_tier(1, kBlock); },
        *sync_origin);

    // Footprint balance: every catalogue block, weighted once.
    std::vector<std::uint64_t> per_shard(shards, 0);
    for (BlockId b = 0; b < footprint; ++b) ++per_shard[cache.shard_of(b)];
    const double mean =
        static_cast<double>(footprint) / static_cast<double>(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_NEAR(static_cast<double>(per_shard[s]), mean, 0.15 * mean)
          << "footprint imbalance at " << shards << " shards, shard " << s;
    }

    // Reference balance: Zipf popularity concentrates on hot titles, but a
    // title's segments spread over all shards, so no shard may dominate.
    auto src = make_streaming_source(wl);
    Rng rng(5);
    std::vector<std::uint64_t> per_shard_refs(shards, 0);
    constexpr int kRefs = 30000;
    for (int i = 0; i < kRefs; ++i) ++per_shard_refs[cache.shard_of(src->next(rng))];
    const double ref_mean = static_cast<double>(kRefs) / static_cast<double>(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_LT(static_cast<double>(per_shard_refs[s]), 2.0 * ref_mean)
          << "reference pile-up at " << shards << " shards, shard " << s;
    }
  }
}

class RecordingOrigin final : public Origin {
 public:
  explicit RecordingOrigin(Origin& inner) : inner_(inner) {}
  void read(BlockId block, std::span<std::byte> out) override {
    inner_.read(block, out);
  }
  void write(BlockId block, std::span<const std::byte> data) override {
    writes.push_back(block);
    inner_.write(block, data);
  }
  std::vector<BlockId> writes;

 private:
  Origin& inner_;
};

// Regression for the flush-ordering bug: flushing shard 0's dirty set, then
// shard 1's, interleaves origin write-back by shard index, so the origin's
// write sequence depended on the shard count. A quiescent flush must write
// strictly in ascending global block order (matching BlockCache::flush),
// whatever the sharding.
TEST(ShardedCache, FlushWritesBackInGlobalBlockOrder) {
  for (std::size_t shards : {1u, 3u, 4u}) {
    auto origin = make_memory_origin(kBlock);
    RecordingOrigin recording(*origin);
    auto sync_origin = make_synchronized_origin(recording);
    ShardedBlockCache cache(
        BlockCacheConfig{kBlock, 8}, shards,
        [](std::size_t) { return make_memory_near_tier(16, kBlock); },
        *sync_origin);

    // Dirty a scrambled id space (eviction write-backs during the fill are
    // not part of the contract; drop them before flushing).
    Rng rng(21);
    for (int i = 0; i < 200; ++i)
      cache.write(1 + rng.next_below(150), pattern(i, 9));
    recording.writes.clear();

    cache.flush();
    ASSERT_GT(recording.writes.size(), 10u) << shards << " shards";
    EXPECT_TRUE(std::is_sorted(recording.writes.begin(), recording.writes.end()))
        << "out-of-order flush at " << shards << " shards";
    EXPECT_EQ(std::adjacent_find(recording.writes.begin(), recording.writes.end()),
              recording.writes.end())
        << "duplicate write-back at " << shards << " shards";

    // Idempotence: everything dirty was flushed.
    recording.writes.clear();
    cache.flush();
    EXPECT_TRUE(recording.writes.empty());
  }
}

// Versioned pattern with the identity embedded in the first 16 bytes, so a
// reader that races writers can recover which write it observed and verify
// the block arrived whole (no torn interleaving of two versions).
std::vector<std::byte> versioned_pattern(BlockId block, std::uint64_t version) {
  std::vector<std::byte> out(kBlock);
  std::memcpy(out.data(), &block, 8);
  std::memcpy(out.data() + 8, &version, 8);
  SplitMix64 gen(block * 0x10001ULL + version * 0x9e3779b9ULL);
  for (std::size_t i = 16; i < kBlock; i += 8) {
    const std::uint64_t v = gen.next();
    std::memcpy(&out[i], &v, std::min<std::size_t>(8, kBlock - i));
  }
  return out;
}

// The serving stress suite: N writers + M readers + a flush/stats thread over
// a shared block range. Readers must always observe a complete version some
// writer produced; after the threads quiesce, a final flush must leave the
// origin holding exactly each block's last version (single-shard semantics:
// one writer owns each block, so "last" is well defined).
TEST(ShardedCache, ConcurrentStressAgainstReference) {
  auto origin = make_memory_origin(kBlock);
  auto sync_origin = make_synchronized_origin(*origin);
  ShardedBlockCache cache(
      BlockCacheConfig{kBlock, 16}, 4,
      [](std::size_t) { return make_memory_near_tier(32, kBlock); },
      *sync_origin);

  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kOps = 2500;
  constexpr BlockId kPerWriter = 120;
  constexpr BlockId kRange = kWriters * kPerWriter;

  std::vector<std::vector<std::uint64_t>> last_version(
      kWriters, std::vector<std::uint64_t>(kPerWriter, 0));
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&cache, &last_version, w] {
      Rng rng(900 + w);
      const BlockId base = static_cast<BlockId>(w) * kPerWriter;
      for (int i = 0; i < kOps; ++i) {
        const BlockId off = rng.next_below(kPerWriter);
        const std::uint64_t v = ++last_version[w][off];
        cache.write(base + off, versioned_pattern(base + off, v));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cache, r, &done] {
      Rng rng(7000 + r);
      std::vector<std::byte> out(kBlock);
      while (!done.load(std::memory_order_relaxed)) {
        const BlockId b = rng.next_below(kRange);
        cache.read(b, out);
        BlockId got_block = 0;
        std::uint64_t got_version = 0;
        std::memcpy(&got_block, out.data(), 8);
        std::memcpy(&got_version, out.data() + 8, 8);
        if (got_block == 0 && got_version == 0) continue;  // not yet written
        ASSERT_EQ(got_block, b);
        const auto want = versioned_pattern(b, got_version);
        ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0)
            << "torn read of block " << b << " version " << got_version;
      }
    });
  }
  std::thread maintainer([&cache, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      cache.flush();
      (void)cache.stats();
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_relaxed);
  for (int t = kWriters; t < kWriters + kReaders; ++t) threads[t].join();
  maintainer.join();

  // Quiescent flush, then the origin must hold every block's final version.
  cache.flush();
  std::vector<std::byte> out(kBlock);
  for (int w = 0; w < kWriters; ++w) {
    for (BlockId off = 0; off < kPerWriter; ++off) {
      const std::uint64_t v = last_version[w][off];
      if (v == 0) continue;
      const BlockId b = static_cast<BlockId>(w) * kPerWriter + off;
      origin->read(b, out);
      const auto want = versioned_pattern(b, v);
      ASSERT_EQ(std::memcmp(out.data(), want.data(), kBlock), 0)
          << "origin lost block " << b << " final version " << v;
    }
  }
}

// Single-shard reference equivalence: the same deterministic operation
// sequence through four shards and through one BlockCache must leave the
// two origins byte-identical after a flush (per-block caching decisions
// differ; durable contents must not).
TEST(ShardedCache, MatchesSingleShardReferenceOnSameSequence) {
  constexpr BlockId kRange = 300;
  struct Op {
    bool write;
    BlockId block;
    std::uint64_t version;
  };
  Rng rng(13);
  std::vector<Op> ops;
  std::uint64_t next_version = 0;
  for (int i = 0; i < 4000; ++i)
    ops.push_back(Op{rng.next_bool(0.5), rng.next_below(kRange), ++next_version});

  auto run_sharded = [&](std::size_t shards) {
    auto origin = make_memory_origin(kBlock);
    auto sync = make_synchronized_origin(*origin);
    ShardedBlockCache cache(
        BlockCacheConfig{kBlock, 8}, shards,
        [](std::size_t) { return make_memory_near_tier(16, kBlock); }, *sync);
    std::vector<std::byte> out(kBlock);
    for (const Op& op : ops) {
      if (op.write) {
        cache.write(op.block, versioned_pattern(op.block, op.version));
      } else {
        cache.read(op.block, out);
      }
    }
    cache.flush();
    std::vector<std::byte> image;
    for (BlockId b = 0; b < kRange; ++b) {
      origin->read(b, out);
      image.insert(image.end(), out.begin(), out.end());
    }
    return image;
  };

  EXPECT_EQ(run_sharded(4), run_sharded(1));
}

}  // namespace
}  // namespace ulc
