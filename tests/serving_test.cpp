// The serving runtime: bounded MPSC queue semantics, the sharded gLRU
// directory fed over those queues, the composed ServingRuntime, and the
// multi-threaded load generator (closed- and open-loop).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "runtime/loadgen.h"
#include "runtime/serving.h"
#include "util/mpsc.h"

namespace ulc {
namespace {

// ---------- BoundedMpsc -----------------------------------------------------

TEST(BoundedMpsc, SingleProducerFifoOrder) {
  BoundedMpsc<int> q(64);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(q.push(i));
  std::vector<int> got, batch;
  while (got.size() < 40) {
    ASSERT_GT(q.pop_wait(batch), 0u);
    got.insert(got.end(), batch.begin(), batch.end());
  }
  for (int i = 0; i < 40; ++i) EXPECT_EQ(got[i], i);
}

TEST(BoundedMpsc, MultiProducerCompleteAndPerProducerOrdered) {
  BoundedMpsc<std::uint64_t> q(16);  // smaller than the item count: must block
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;

  std::vector<std::uint64_t> got;
  std::thread consumer([&] {
    std::vector<std::uint64_t> batch;
    while (q.pop_wait(batch) > 0)
      got.insert(got.end(), batch.begin(), batch.end());
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push((static_cast<std::uint64_t>(p) << 32) | i));
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();

  ASSERT_EQ(got.size(), kProducers * kPerProducer);
  // Each producer's subsequence arrives in its program order.
  std::vector<std::uint64_t> next(kProducers, 0);
  for (std::uint64_t v : got) {
    const std::size_t p = v >> 32;
    EXPECT_EQ(v & 0xffffffffULL, next[p]);
    ++next[p];
  }
  const MpscStats s = q.stats();
  EXPECT_EQ(s.enqueued, kProducers * kPerProducer);
  EXPECT_EQ(s.dequeued, kProducers * kPerProducer);
  EXPECT_LE(s.max_depth, 16u);
}

TEST(BoundedMpsc, BoundBlocksProducersUntilConsumed) {
  BoundedMpsc<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  EXPECT_EQ(q.stats().rejected, 1u);

  std::atomic<bool> unblocked{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(3));  // blocks until the consumer drains
    unblocked.store(true);
  });
  std::vector<int> batch;
  while (q.stats().producer_waits == 0) std::this_thread::yield();
  EXPECT_FALSE(unblocked.load());
  ASSERT_GT(q.pop_wait(batch), 0u);
  producer.join();
  EXPECT_TRUE(unblocked.load());
  ASSERT_GT(q.pop_wait(batch), 0u);
  EXPECT_EQ(batch[0], 3);
  EXPECT_GE(q.stats().producer_waits, 1u);
}

TEST(BoundedMpsc, CloseDrainsThenSignalsExit) {
  BoundedMpsc<int> q(8);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // post-close pushes are dropped
  std::vector<int> batch;
  ASSERT_EQ(q.pop_wait(batch), 2u);  // queued items still delivered
  EXPECT_EQ(q.pop_wait(batch), 0u);  // then the exit signal
  EXPECT_TRUE(q.closed());
}

// The wake contract. Every wait below is bounded, so a lost wake fails the
// test instead of hanging it; on a timeout the test wakes the consumer by
// another route first, so the future's destructor can join its thread.
constexpr auto kWakeBound = std::chrono::seconds(10);

TEST(BoundedMpsc, WakesOncePerHalfCapacityAndOnKick) {
  BoundedMpsc<int> q(8);  // wake depth (8 + 1) / 2 = 4
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.push(i));
  EXPECT_EQ(q.stats().wakeups, 0u);  // below half capacity: no wake
  ASSERT_TRUE(q.push(3));
  EXPECT_EQ(q.stats().wakeups, 1u);  // depth reached 4
  ASSERT_TRUE(q.push(4));
  EXPECT_EQ(q.stats().wakeups, 1u);  // past the crossing: still one
  std::vector<int> batch;
  ASSERT_EQ(q.pop_wait(batch), 5u);
  q.kick();                          // nothing queued: no wake
  EXPECT_EQ(q.stats().wakeups, 1u);
  ASSERT_TRUE(q.push(5));
  q.kick();                          // one item queued: kick wakes
  EXPECT_EQ(q.stats().wakeups, 2u);
  BoundedMpsc<int> one(1);           // wake depth (1 + 1) / 2 = 1
  ASSERT_TRUE(one.push(0));
  EXPECT_EQ(one.stats().wakeups, 1u);
}

// pop_wait hands the backlog over by swapping buffers with the caller, so
// the queue's storage and the consumer's batch trade places every round.
// Order, per-round wake counts and the dequeue ledger must not notice.
TEST(BoundedMpsc, SwappedBatchesKeepFifoOrderAndWakeCounts) {
  BoundedMpsc<int> q(8);  // wake depth 4
  std::vector<int> batch = {-1, -2};  // stale contents must be cleared
  int next = 0;
  std::uint64_t wakes = 0;
  for (int round = 0; round < 6; ++round) {
    const int n = 1 + round;  // 1..6 items, crossing the wake depth from 4
    const int first = next;
    for (int i = 0; i < n; ++i) ASSERT_TRUE(q.push(next++));
    if (n >= 4) ++wakes;  // one crossing per round that reaches depth 4
    EXPECT_EQ(q.stats().wakeups, wakes) << "round " << round;
    ASSERT_EQ(q.pop_wait(batch), static_cast<std::size_t>(n));
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) EXPECT_EQ(batch[i], first + i) << round;
    EXPECT_EQ(q.depth(), 0u);
  }
  const MpscStats s = q.stats();
  EXPECT_EQ(s.enqueued, static_cast<std::uint64_t>(next));
  EXPECT_EQ(s.dequeued, s.enqueued);
  EXPECT_EQ(s.max_depth, 6u);
  q.close();
  EXPECT_EQ(q.pop_wait(batch), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(BoundedMpsc, HalfCapacityPushWakesABlockedConsumer) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kWake = (kCapacity + 1) / 2;
  BoundedMpsc<int> q(kCapacity);
  auto consumer = std::async(std::launch::async, [&q] {
    std::vector<int> got, batch;
    while (got.size() < kWake && q.pop_wait(batch) > 0)
      got.insert(got.end(), batch.begin(), batch.end());
    return got;
  });
  // Give the consumer time to block in pop_wait (if it starts later it
  // simply finds the items queued; the wake count below is exact either way).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (std::size_t i = 0; i + 1 < kWake; ++i)
    ASSERT_TRUE(q.push(static_cast<int>(i)));
  EXPECT_EQ(q.stats().wakeups, 0u);
  ASSERT_TRUE(q.push(static_cast<int>(kWake - 1)));
  EXPECT_EQ(q.stats().wakeups, 1u);
  const bool woke = consumer.wait_for(kWakeBound) == std::future_status::ready;
  if (!woke) q.close();
  ASSERT_TRUE(woke) << "the half-capacity push did not wake the consumer";
  EXPECT_EQ(consumer.get(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(BoundedMpsc, CloseWakesAndDeliversEverythingQueued) {
  BoundedMpsc<int> q(64);  // wake depth 32: three items never wake
  auto consumer = std::async(std::launch::async, [&q] {
    std::vector<int> got, batch;
    while (q.pop_wait(batch) > 0)
      got.insert(got.end(), batch.begin(), batch.end());
    return got;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.push(i));
  EXPECT_EQ(q.stats().wakeups, 0u);
  q.close();
  const bool woke = consumer.wait_for(kWakeBound) == std::future_status::ready;
  if (!woke) q.kick();
  ASSERT_TRUE(woke) << "close() did not wake the consumer";
  EXPECT_EQ(consumer.get(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.stats().dequeued, 3u);
}

// ---------- DirectoryServer -------------------------------------------------

PlacementEvent ev(BlockId block, std::uint32_t shard, PlacementEventKind kind) {
  return PlacementEvent{block, shard, kind};
}

TEST(DirectoryServer, AppliesEventsAndTracksOwnership) {
  DirectoryConfig cfg;
  cfg.shards = 2;
  DirectoryServer dir(cfg);
  for (BlockId b = 0; b < 100; ++b)
    dir.on_placement(ev(b, static_cast<std::uint32_t>(b % 4), PlacementEventKind::kStore));
  dir.drain();

  const DirectoryStats s = dir.stats();
  EXPECT_EQ(s.applied(), 100u);
  EXPECT_EQ(s.resident(), 100u);
  for (BlockId b = 0; b < 100; ++b) {
    ASSERT_TRUE(dir.tracks(b)) << b;
    EXPECT_EQ(dir.owner_of(b), b % 4);
  }

  // A demotion refreshes ownership; a discard removes the entry.
  dir.on_placement(ev(7, 3, PlacementEventKind::kDemote));
  dir.on_placement(ev(8, 1, PlacementEventKind::kDiscard));
  dir.drain();
  EXPECT_EQ(dir.owner_of(7), 3u);
  EXPECT_FALSE(dir.tracks(8));
  EXPECT_EQ(dir.stats().resident(), 99u);
}

TEST(DirectoryServer, DrainAppliesALoneEventBelowTheWakeDepth) {
  DirectoryConfig cfg;
  cfg.shards = 1;
  cfg.queue_capacity = 4096;  // one event is far below the wake depth
  DirectoryServer dir(cfg);
  // Let the worker block in pop_wait first, so only drain() can wake it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dir.on_placement(ev(42, 1, PlacementEventKind::kStore));
  auto drained = std::async(std::launch::async, [&dir] { dir.drain(); });
  const bool done = drained.wait_for(kWakeBound) == std::future_status::ready;
  if (!done) dir.stop();  // applies the queue and releases drain()
  ASSERT_TRUE(done) << "drain() did not wake the directory worker";
  EXPECT_TRUE(dir.tracks(42));
  EXPECT_EQ(dir.owner_of(42), 1u);
  const DirectoryStats s = dir.stats();
  EXPECT_EQ(s.applied(), 1u);
  // At most drain()'s kick (none if the worker had not blocked yet).
  EXPECT_LE(s.shards[0].queue.wakeups, 1u);
}

TEST(DirectoryServer, CapacityBoundEvictsColdEntries) {
  DirectoryConfig cfg;
  cfg.shards = 1;
  cfg.capacity = 16;
  DirectoryServer dir(cfg);
  for (BlockId b = 0; b < 64; ++b)
    dir.on_placement(ev(b, 0, PlacementEventKind::kStore));
  dir.drain();
  const DirectoryStats s = dir.stats();
  EXPECT_EQ(s.resident(), 16u);
  EXPECT_EQ(s.shards[0].evictions, 48u);
  // The most recently directed blocks survive (gLRU order).
  for (BlockId b = 48; b < 64; ++b) EXPECT_TRUE(dir.tracks(b)) << b;
}

TEST(DirectoryServer, ConcurrentProducersLoseNothing) {
  DirectoryConfig cfg;
  cfg.shards = 4;
  cfg.queue_capacity = 32;  // force backpressure
  DirectoryServer dir(cfg);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 8000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&dir, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        dir.on_placement(ev(i * kProducers + p, static_cast<std::uint32_t>(p),
                            PlacementEventKind::kStore));
    });
  }
  for (auto& t : producers) t.join();
  dir.drain();
  EXPECT_EQ(dir.stats().applied(), kProducers * kPerProducer);
}

// ---------- ServingRuntime --------------------------------------------------

std::vector<std::byte> filled(std::size_t n, BlockId block) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::byte>((block + i) & 0xff);
  return out;
}

TEST(ServingRuntime, DirectoryShadowsTheCachePopulation) {
  ServingConfig cfg;
  cfg.per_shard.block_size = 256;
  cfg.per_shard.memory_blocks = 8;
  cfg.cache_shards = 2;
  cfg.near_blocks_per_shard = 16;
  cfg.directory.shards = 2;
  auto backing = make_memory_origin(256);
  ServingRuntime runtime(cfg, *backing);

  std::vector<std::byte> out(256);
  for (BlockId b = 0; b < 200; ++b)
    runtime.write(b, filled(256, b));
  for (BlockId b = 190; b < 200; ++b) runtime.read(b, out);
  runtime.drain();

  ASSERT_NE(runtime.directory(), nullptr);
  const DirectoryStats ds = runtime.directory()->stats();
  // Every cache movement produced exactly one directory event, none lost.
  std::uint64_t enqueued = 0;
  for (const DirectoryShardStats& s : ds.shards) enqueued += s.queue.enqueued;
  EXPECT_EQ(ds.applied(), enqueued);
  EXPECT_GT(ds.applied(), 0u);
  // The hot tail was just written/read: the directory must be tracking it,
  // owned by the cache shard the router names.
  for (BlockId b = 190; b < 200; ++b) {
    ASSERT_TRUE(runtime.directory()->tracks(b)) << b;
    EXPECT_EQ(runtime.directory()->owner_of(b), runtime.cache().shard_of(b));
  }
  // Data integrity through the serving path.
  for (BlockId b = 0; b < 200; ++b) {
    runtime.read(b, out);
    const auto want = filled(256, b);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), 256), 0) << b;
  }
}

TEST(ServingRuntime, DisabledDirectoryStillServes) {
  ServingConfig cfg;
  cfg.per_shard.block_size = 256;
  cfg.per_shard.memory_blocks = 4;
  cfg.cache_shards = 2;
  cfg.near_blocks_per_shard = 8;
  cfg.enable_directory = false;
  auto backing = make_memory_origin(256);
  ServingRuntime runtime(cfg, *backing);
  EXPECT_EQ(runtime.directory(), nullptr);
  std::vector<std::byte> out(256);
  for (BlockId b = 0; b < 50; ++b) runtime.write(b, filled(256, b));
  runtime.drain();  // no-op
  for (BlockId b = 0; b < 50; ++b) {
    runtime.read(b, out);
    const auto want = filled(256, b);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), 256), 0) << b;
  }
}

// ---------- load generator --------------------------------------------------

LoadGenConfig small_load(const std::string& workload) {
  LoadGenConfig cfg;
  cfg.workload = workload;
  cfg.requests = 6000;
  cfg.threads = 2;
  cfg.write_frac = 0.2;
  cfg.seed = 3;
  cfg.footprint_blocks = 2000;
  cfg.streaming.n_titles = 50;
  cfg.serving.per_shard.block_size = 512;
  cfg.serving.per_shard.memory_blocks = 32;
  cfg.serving.cache_shards = 2;
  cfg.serving.near_blocks_per_shard = 64;
  cfg.serving.directory.shards = 2;
  return cfg;
}

TEST(LoadGen, ClosedLoopAccountsEveryRequest) {
  for (const char* workload : {"zipf", "streaming"}) {
    const LoadGenConfig cfg = small_load(workload);
    const LoadGenResult r = run_serving_load(cfg);
    EXPECT_EQ(r.requests, cfg.requests) << workload;
    EXPECT_EQ(r.reads + r.writes, cfg.requests) << workload;
    EXPECT_EQ(r.latency_ms.count(), cfg.requests) << workload;
    EXPECT_EQ(r.cache.reads + r.cache.writes, cfg.requests) << workload;
    EXPECT_GT(r.requests_per_sec, 0.0) << workload;
    EXPECT_GT(r.writes, 0u) << workload;
    // The directory consumed every event the cache emitted.
    std::uint64_t enqueued = 0;
    for (const DirectoryShardStats& s : r.directory.shards)
      enqueued += s.queue.enqueued;
    EXPECT_EQ(r.directory.applied(), enqueued) << workload;
    EXPECT_GT(r.directory.applied(), 0u) << workload;
  }
}

TEST(LoadGen, OpenLoopPacingCompletes) {
  LoadGenConfig cfg = small_load("zipf");
  cfg.requests = 2000;
  cfg.rate = 50000.0;  // fast enough to finish promptly, still paced
  const LoadGenResult r = run_serving_load(cfg);
  EXPECT_EQ(r.requests, cfg.requests);
  EXPECT_EQ(r.latency_ms.count(), cfg.requests);
  // Open-loop runs at least as long as the schedule demands.
  const double per_thread =
      static_cast<double>(cfg.requests) / static_cast<double>(cfg.threads);
  EXPECT_GE(r.wall_seconds, (per_thread - 1.0) / cfg.rate);
}

TEST(LoadGen, ResultJsonCarriesTheServingSchema) {
  const LoadGenConfig cfg = small_load("zipf");
  const LoadGenResult r = run_serving_load(cfg);
  const std::string doc = load_result_to_json(cfg, r).dump();
  for (const char* key :
       {"\"workload\"", "\"threads\"", "\"requests\"", "\"wall_seconds\"",
        "\"requests_per_sec\"", "\"latency_ms\"", "\"p50\"", "\"p95\"",
        "\"p99\"", "\"cache\"", "\"directory\"", "\"shape\"", "\"queue\"",
        "\"producer_waits\"", "\"wakeups\"", "\"directory_queue_capacity\"",
        "\"lock_parks\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace ulc