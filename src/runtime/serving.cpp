#include "runtime/serving.h"

#include <chrono>

#include "util/ensure.h"
#include "util/flat_hash.h"

namespace ulc {

DirectoryServer::DirectoryServer(const DirectoryConfig& config) {
  ULC_REQUIRE(config.shards >= 1, "need at least one directory shard");
  ULC_REQUIRE(config.capacity >= 1, "directory capacity must be positive");
  shards_.reserve(config.shards);
  for (std::size_t s = 0; s < config.shards; ++s)
    shards_.push_back(std::make_unique<ServerShard>(config));
  for (auto& shard : shards_) {
    ServerShard* s = shard.get();
    shard->worker = std::thread([this, s] { run_worker(*s); });
  }
}

DirectoryServer::~DirectoryServer() { stop(); }

std::size_t DirectoryServer::shard_of(BlockId block) const {
  // Same mixer as the cache's shard routing: when directory shards == cache
  // shards each queue gets exactly one producing cache shard, so its event
  // stream is totally ordered.
  return static_cast<std::size_t>(splitmix64_mix(block) % shards_.size());
}

void DirectoryServer::on_placement(const PlacementEvent& event) {
  ServerShard& shard = *shards_[shard_of(event.block)];
  // Count the post before pushing so drain() never observes applied > posted
  // settle below a concurrent post it raced with; a rejected push (stopped
  // server) takes the count back.
  shard.posted.fetch_add(1, std::memory_order_relaxed);
  if (!shard.queue.push(event))
    shard.posted.fetch_sub(1, std::memory_order_relaxed);
}

void DirectoryServer::run_worker(ServerShard& shard) {
  std::vector<PlacementEvent> batch;
  while (shard.queue.pop_wait(batch) > 0) {
    std::lock_guard<std::mutex> guard(shard.lock);
    for (const PlacementEvent& event : batch) apply(shard, event);
    shard.stats.applied += batch.size();
    shard.applied_cv.notify_all();
  }
}

void DirectoryServer::apply(ServerShard& shard, const PlacementEvent& event) {
  switch (event.kind) {
    case PlacementEventKind::kStore:
      ++shard.stats.stores;
      shard.stats.evictions +=
          shard.directory.place(event.block, event.shard).count();
      break;
    case PlacementEventKind::kPromote:
      ++shard.stats.promotes;
      shard.stats.evictions +=
          shard.directory.place(event.block, event.shard).count();
      break;
    case PlacementEventKind::kDemote:
      ++shard.stats.demotes;
      shard.stats.evictions +=
          shard.directory.place(event.block, event.shard).count();
      break;
    case PlacementEventKind::kDiscard:
      ++shard.stats.discards;
      shard.directory.take(event.block);
      break;
    case PlacementEventKind::kWriteback:
      // Write-backs move bytes, not residency; the directory only counts
      // them (a replicated deployment would invalidate peer copies here).
      ++shard.stats.writebacks;
      break;
  }
}

void DirectoryServer::drain() {
  for (auto& shard : shards_) {
    const std::uint64_t target = shard->posted.load(std::memory_order_relaxed);
    const auto caught_up = [&] { return shard->stats.applied >= target; };
    // A queue shallower than half its capacity does not wake its worker, so
    // kick it. A post counted in `target` may still be on its way into the
    // queue (posted is bumped before the push), so re-kick until caught up.
    std::unique_lock<std::mutex> lock(shard->lock);
    while (!caught_up()) {
      lock.unlock();
      shard->queue.kick();
      lock.lock();
      shard->applied_cv.wait_for(lock, std::chrono::milliseconds(1), caught_up);
    }
  }
}

void DirectoryServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    // pop_wait keeps delivering until the closed queue is empty, so the
    // worker applies everything queued before exiting.
    if (shard->worker.joinable()) shard->worker.join();
  }
}

bool DirectoryServer::tracks(BlockId block) const {
  const ServerShard& shard = *shards_[shard_of(block)];
  std::lock_guard<std::mutex> guard(shard.lock);
  return shard.directory.contains(block);
}

std::uint32_t DirectoryServer::owner_of(BlockId block) const {
  const ServerShard& shard = *shards_[shard_of(block)];
  std::lock_guard<std::mutex> guard(shard.lock);
  ULC_REQUIRE(shard.directory.contains(block), "block not tracked");
  return shard.directory.owner_of(block);
}

DirectoryStats DirectoryServer::stats() const {
  DirectoryStats out;
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->lock);
    DirectoryShardStats s = shard->stats;
    s.resident = shard->directory.size();
    s.queue = shard->queue.stats();
    out.shards.push_back(s);
  }
  return out;
}

ServingRuntime::ServingRuntime(const ServingConfig& config, Origin& backing)
    : config_(config), origin_(make_synchronized_origin(backing)) {
  ULC_REQUIRE(config.cache_shards >= 1, "need at least one cache shard");
  if (config_.enable_directory)
    directory_ = std::make_unique<DirectoryServer>(config_.directory);
  const std::size_t near_blocks = config_.near_blocks_per_shard;
  const std::size_t block_size = config_.per_shard.block_size;
  cache_ = std::make_unique<ShardedBlockCache>(
      config_.per_shard, config_.cache_shards,
      [near_blocks, block_size](std::size_t) {
        return make_memory_near_tier(near_blocks, block_size);
      },
      *origin_);
  if (directory_) cache_->set_placement_listener(directory_.get());
}

ServingRuntime::~ServingRuntime() = default;

void ServingRuntime::drain() {
  if (directory_) directory_->drain();
}

}  // namespace ulc
