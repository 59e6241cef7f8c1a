#include "runtime/sharded_cache.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "util/ensure.h"
#include "util/flat_hash.h"
#include "util/spin_mutex.h"

namespace ulc {

namespace {

// Every shard's misses and write-backs pass through this one lock, so it
// spins before it parks like the shard locks do: an origin call that finds it
// held usually waits out one block copy, not a futex round trip.
class SynchronizedOrigin final : public Origin {
 public:
  explicit SynchronizedOrigin(Origin& inner) : inner_(inner) {}

  void read(BlockId block, std::span<std::byte> out) override {
    std::lock_guard<SpinThenParkMutex> guard(lock_);
    inner_.read(block, out);
  }

  void write(BlockId block, std::span<const std::byte> data) override {
    std::lock_guard<SpinThenParkMutex> guard(lock_);
    inner_.write(block, data);
  }

 private:
  Origin& inner_;
  SpinThenParkMutex lock_;
};

// Route through the splitmix64 finalizer (FlatMap's mixer): every input bit
// influences every output bit, so structured id spaces — sequential
// streaming segments, strided scans — spread evenly. The previous Fibonacci
// multiply alone left low-entropy ids correlated after the >> 32.
inline std::size_t shard_index(BlockId block, std::size_t shards) {
  return static_cast<std::size_t>(splitmix64_mix(block) % shards);
}

}  // namespace

std::unique_ptr<Origin> make_synchronized_origin(Origin& inner) {
  return std::make_unique<SynchronizedOrigin>(inner);
}

ShardedBlockCache::ShardedBlockCache(const BlockCacheConfig& per_shard,
                                     std::size_t shards,
                                     const NearTierFactory& near_factory,
                                     Origin& origin)
    : block_size_(per_shard.block_size) {
  ULC_REQUIRE(shards >= 1, "need at least one shard");
  ULC_REQUIRE(near_factory != nullptr, "need a near-tier factory");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    Shard shard;
    shard.near = near_factory(s);
    ULC_REQUIRE(shard.near != nullptr, "near-tier factory returned null");
    shard.cache = std::make_unique<BlockCache>(per_shard, *shard.near, origin);
    shards_.push_back(std::move(shard));
  }
}

std::size_t ShardedBlockCache::shard_of(BlockId block) const {
  return shard_index(block, shards_.size());
}

BlockCache& ShardedBlockCache::shard_for(BlockId block) {
  return *shards_[shard_index(block, shards_.size())].cache;
}

void ShardedBlockCache::read(BlockId block, std::span<std::byte> out) {
  shard_for(block).read(block, out);
}

void ShardedBlockCache::write(BlockId block, std::span<const std::byte> in) {
  shard_for(block).write(block, in);
}

void ShardedBlockCache::flush() {
  // Deterministic cross-shard order: gather every shard's dirty set, sort
  // globally by block id, and flush one block at a time. Flushing shards
  // back-to-back instead would interleave origin writes by shard index,
  // so the shared origin's write sequence (and any journal behind it)
  // would depend on the shard count.
  std::vector<std::pair<BlockId, std::size_t>> dirty;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (BlockId block : shards_[s].cache->dirty_blocks())
      dirty.emplace_back(block, s);
  }
  std::sort(dirty.begin(), dirty.end());
  for (const auto& [block, s] : dirty) shards_[s].cache->flush_block(block);
}

void ShardedBlockCache::set_placement_listener(PlacementListener* listener) {
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s].cache->set_placement_listener(listener,
                                             static_cast<std::uint32_t>(s));
}

BlockCacheStats ShardedBlockCache::stats() const {
  BlockCacheStats total;
  for (const Shard& shard : shards_) {
    const BlockCacheStats s = shard.cache->stats();
    total.memory_hits += s.memory_hits;
    total.near_hits += s.near_hits;
    total.origin_reads += s.origin_reads;
    total.demotions += s.demotions;
    total.writebacks += s.writebacks;
    total.reads += s.reads;
    total.writes += s.writes;
    total.lock_parks += s.lock_parks;
  }
  return total;
}

}  // namespace ulc
