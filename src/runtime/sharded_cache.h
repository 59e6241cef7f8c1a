// ShardedBlockCache — N independent BlockCache shards routed by block-id
// hash, for embedders whose access rate outgrows one engine lock.
//
// Each shard has its own ULC engine, RAM pool slice and near tier, so shard
// operations never contend; only the origin is shared (wrap a non-thread-
// safe Origin with make_synchronized_origin). Placement quality degrades
// gracefully: each shard ranks its own 1/N of the block population against
// 1/N of the capacity, which preserves ULC's behaviour for workloads whose
// locality is not correlated with the hash (tests check the hit-rate parity
// against a single shard).
//
// Routing goes through the splitmix64 finalizer (the same mixer FlatMap
// uses), not raw block-id bits: structured id spaces — sequential streaming
// segments, power-of-two strides — would otherwise pile onto a few shards
// and turn the shard layer into a single lock with extra steps.
//
// Determinism is per-shard, not global: concurrent callers interleave across
// shard locks however the scheduler likes, but each shard's engine sees a
// well-defined access sequence. The one cross-shard ordering this class does
// promise is flush(): dirty blocks are written back to the shared origin in
// ascending block-id order across all shards, so a quiescent flush produces
// a byte-identical origin write sequence regardless of shard count.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "runtime/block_cache.h"

namespace ulc {

// Serializes a non-thread-safe Origin behind one SpinThenParkMutex.
std::unique_ptr<Origin> make_synchronized_origin(Origin& inner);

class ShardedBlockCache {
 public:
  using NearTierFactory = std::function<std::unique_ptr<NearTier>(std::size_t shard)>;

  // `per_shard` applies to every shard (memory_blocks per shard). The
  // factory creates one near tier per shard. `origin` must be thread-safe
  // (wrap with make_synchronized_origin if needed) and outlive the cache.
  ShardedBlockCache(const BlockCacheConfig& per_shard, std::size_t shards,
                    const NearTierFactory& near_factory, Origin& origin);

  void read(BlockId block, std::span<std::byte> out);
  void write(BlockId block, std::span<const std::byte> in);

  // Writes every dirty block back to the origin in ascending block-id order
  // across all shards (matching BlockCache::flush's in-shard order). Only
  // quiescent flushes are deterministic: concurrent writers can re-dirty
  // blocks while the sweep runs.
  void flush();

  // Installs `listener` on every shard (shard index as the event owner id).
  // Pass nullptr to detach. Same lifetime contract as BlockCache's.
  void set_placement_listener(PlacementListener* listener);

  BlockCacheStats stats() const;  // aggregated over shards; lock-free
  std::size_t shards() const { return shards_.size(); }
  std::size_t block_size() const { return block_size_; }

  // The shard index `block` routes to (stable for the cache's lifetime).
  std::size_t shard_of(BlockId block) const;

 private:
  struct Shard {
    std::unique_ptr<NearTier> near;
    std::unique_ptr<BlockCache> cache;
  };

  BlockCache& shard_for(BlockId block);

  std::size_t block_size_;
  std::vector<Shard> shards_;
};

}  // namespace ulc
