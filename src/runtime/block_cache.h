// BlockCache — an embeddable, thread-safe two-tier block cache with ULC
// placement. This is the paper's protocol running over real bytes rather
// than trace metadata: a RAM buffer pool (tier L1) in front of a NearTier
// (tier L2, e.g. an SSD cache file) in front of the Origin.
//
// The ULC engine decides, per access, where a block belongs; BlockCache
// moves the data accordingly: Retrieve commands become tier fetches, Demote
// commands become near-tier stores, discards of dirty blocks become origin
// write-backs. Blocks the engine declines to cache are served straight
// through (the caller receives a copy; nothing is retained).
//
// Block state lives in one fixed descriptor table (the buffer-cache shape of
// xv6's bio.c): each cached block owns one descriptor naming the tier that
// holds it, whether it is dirty, and its RAM buffer; free descriptors are
// chained through the same array. A FlatMap reserved up front indexes it, so
// the data path allocates nothing per block (DESIGN.md §10).
//
// Thread safety: all mutating operations are serialized by one internal
// SpinThenParkMutex (the engine's metadata operations are O(1) and a block
// moves between tiers in one copy, so the lock is held for about a
// microsecond except during origin IO; a waiter spins that out instead of
// sleeping). Hot counters are relaxed atomics, so stats() is lock-free: a
// monitoring thread never queues behind an in-flight origin read.
// ShardedBlockCache layers N of these for callers whose access rate
// outgrows one lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/tier.h"
#include "ulc/ulc_client.h"
#include "ulc/writeback.h"
#include "util/flat_hash.h"
#include "util/spin_mutex.h"

namespace ulc {

struct BlockCacheConfig {
  std::size_t block_size = 8192;
  std::size_t memory_blocks = 1024;  // tier-L1 buffer pool size
};

struct BlockCacheStats {
  std::uint64_t memory_hits = 0;    // served from the RAM pool
  std::uint64_t near_hits = 0;      // served from the near tier
  std::uint64_t origin_reads = 0;   // misses
  std::uint64_t demotions = 0;      // RAM -> near-tier block movements
  std::uint64_t writebacks = 0;     // dirty blocks written to the origin
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t lock_parks = 0;     // times a shard-lock waiter went to sleep
};

// Data-movement notifications for an external directory (the serving
// runtime's sharded gLRU server consumes these over MPSC queues). Each event
// names the block, the cache shard that owns it, and what happened to it.
enum class PlacementEventKind : std::uint8_t {
  kStore,      // block materialized in a cache tier (miss fill / demote target)
  kPromote,    // moved up from the near tier into RAM
  kDemote,     // moved down from RAM into the near tier
  kDiscard,    // dropped from the cache entirely
  kWriteback,  // dirty bytes pushed to the origin
};

struct PlacementEvent {
  BlockId block = 0;
  std::uint32_t shard = 0;  // owning cache shard (0 for a standalone cache)
  PlacementEventKind kind = PlacementEventKind::kStore;
};

class PlacementListener {
 public:
  virtual ~PlacementListener() = default;
  // Called with the cache's internal lock held; implementations must be fast
  // and must never call back into the cache (hand off to a queue instead).
  virtual void on_placement(const PlacementEvent& event) = 0;
};

class BlockCache {
 public:
  // The tiers must outlive the cache. near.block_size() must match.
  BlockCache(const BlockCacheConfig& config, NearTier& near, Origin& origin);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Copies the block's current contents into `out` (>= block_size bytes).
  void read(BlockId block, std::span<std::byte> out);
  // Replaces the block's contents from `in` (>= block_size bytes).
  void write(BlockId block, std::span<const std::byte> in);

  // Writes every dirty block back to the origin in ascending block order
  // (cached copies stay valid).
  void flush();

  // Sorted snapshot of the currently dirty block ids, and a single-block
  // flush (no-op when the block is not dirty). ShardedBlockCache composes
  // these into a globally block-ordered cross-shard flush.
  std::vector<BlockId> dirty_blocks() const;
  void flush_block(BlockId block);

  // Optional write-back journal: every dirty block written to the origin is
  // appended, marked written when origin.write returns, and acknowledged —
  // the same pipeline the simulated hierarchies narrate. Pass nullptr to
  // detach. The sink must outlive the cache (or be detached before
  // destruction; note ~BlockCache flushes).
  void set_writeback_journal(WritebackSink* journal);

  // Optional placement listener; events carry `shard` as their owner id.
  // Pass nullptr to detach. The listener must outlive the cache (or be
  // detached before destruction; note ~BlockCache flushes).
  void set_placement_listener(PlacementListener* listener, std::uint32_t shard);

  BlockCacheStats stats() const;  // lock-free (relaxed counter reads)
  std::size_t block_size() const { return config_.block_size; }

  // Test support: true if the block currently occupies a RAM buffer.
  bool resident_in_memory(BlockId block) const;

 private:
  // One per cached block. flags == 0 marks a free descriptor, whose
  // next_free links the free list. A block is in exactly one tier; kDirty
  // stays set wherever it moves until its bytes reach the origin.
  struct Descriptor {
    static constexpr std::uint8_t kInRam = 1;
    static constexpr std::uint8_t kInNear = 2;
    static constexpr std::uint8_t kDirty = 4;

    BlockId block = 0;
    std::uint32_t buffer = 0;     // RAM buffer index, valid while kInRam
    std::uint32_t next_free = 0;  // free-list link, valid while flags == 0
    std::uint8_t flags = 0;
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // Written only under lock_ and read lock-free by stats(): relaxed ordering
  // is enough because each counter is independent (no cross-counter
  // invariant is promised to concurrent readers), and the single writer
  // increments with a plain load+store instead of a locked read-modify-write.
  struct Counters {
    std::atomic<std::uint64_t> memory_hits{0};
    std::atomic<std::uint64_t> near_hits{0};
    std::atomic<std::uint64_t> origin_reads{0};
    std::atomic<std::uint64_t> demotions{0};
    std::atomic<std::uint64_t> writebacks{0};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> writes{0};
  };

  // All private methods require lock_ to be held.
  std::byte* buffer_data(std::uint32_t index) {
    return arena_.data() + std::size_t{index} * config_.block_size;
  }
  // Descriptor index of `block`, or kNone when it is not cached.
  std::uint32_t lookup(BlockId block) const;
  // lookup(), checking that the descriptor agrees with the tier the engine
  // says served the access.
  std::uint32_t lookup_served(BlockId block, const UlcAccess& outcome) const;
  std::uint32_t acquire_descriptor(BlockId block, std::uint8_t flags);
  void release_descriptor(std::uint32_t index);
  std::uint32_t acquire_buffer();
  void release_buffer(std::uint32_t index);
  void notify(BlockId block, PlacementEventKind kind);
  // Runs the engine's demotion cascade. Placement calls it first: it frees
  // the RAM buffer a promotion needs and never touches the accessed block
  // (that block sits at the stack top).
  void handle_demotions(const UlcAccess& outcome);
  // Copies a block the engine served from below RAM (a near-tier hit or an
  // origin miss) into `out`.
  void fetch_from_below(BlockId block, const UlcAccess& outcome,
                        std::span<std::byte> out);
  // Level-0 placement of `block` (descriptor `index`, kNone on a miss):
  // gives it a RAM buffer if it holds none, emitting the store or promote
  // event, and marks it RAM-resident (and dirty if `dirtying`). Returns the
  // buffer for the caller to fill; a promoted block's near-tier copy stays
  // until the caller evicts it after the fill.
  std::byte* place_in_ram(BlockId block, std::uint32_t index,
                          const UlcAccess& outcome, bool dirtying);
  // Placement at the near tier or nowhere, from `contents`: stores them in
  // the near tier unless a read hit leaves them there, or writes a write
  // that the engine does not cache straight through to the origin.
  void place_below_ram(BlockId block, std::uint32_t index,
                       const UlcAccess& outcome,
                       std::span<const std::byte> contents, bool dirtying);
  // Pushes the block's bytes to the origin through the journal pipeline
  // (append -> write -> mark_written -> ack). `from` is the tier the dirty
  // data is leaving (0 = RAM, 1 = near tier).
  void writeback(BlockId block, std::size_t from,
                 std::span<const std::byte> contents);
  // Writes one dirty block back (RAM buffer or pinned near-tier fetch) and
  // clears its dirty flag.
  void write_back_dirty_locked(Descriptor& d);
  std::vector<BlockId> dirty_blocks_locked() const;

  BlockCacheConfig config_;
  NearTier& near_;
  Origin& origin_;

  mutable SpinThenParkMutex lock_;
  UlcClient engine_;
  std::vector<std::byte> arena_;  // memory_blocks RAM buffers
  std::vector<std::uint32_t> free_buffers_;
  std::vector<Descriptor> descriptors_;  // fixed size, never reallocated
  std::uint32_t free_descriptor_ = kNone;  // head of the free list
  FlatMap<BlockId, std::uint32_t> index_;  // block -> descriptor
  std::vector<std::byte> scratch_;  // near-tier bytes on their way to the origin
  WritebackSink* journal_ = nullptr;
  PlacementListener* listener_ = nullptr;
  std::uint32_t shard_id_ = 0;
  Counters counters_;
};

}  // namespace ulc
