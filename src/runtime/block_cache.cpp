#include "runtime/block_cache.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <vector>

#include "util/ensure.h"

namespace ulc {

namespace {

UlcConfig engine_config(const BlockCacheConfig& cfg, const NearTier& near) {
  UlcConfig out;
  out.capacities = {cfg.memory_blocks, near.capacity_blocks()};
  return out;
}

// Counters are written only under the cache lock, so an increment needs no
// atomic read-modify-write; the relaxed store keeps stats()' lock-free reads
// tear-free.
inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

}  // namespace

BlockCache::BlockCache(const BlockCacheConfig& config, NearTier& near,
                       Origin& origin)
    : config_(config),
      near_(near),
      origin_(origin),
      engine_(engine_config(config, near)) {
  ULC_REQUIRE(config.block_size > 0, "block size must be positive");
  ULC_REQUIRE(config.memory_blocks >= 1, "need at least one RAM buffer");
  ULC_REQUIRE(near.block_size() == config.block_size,
              "near tier block size mismatch");
  // Placement acquires a descriptor only after the access's demotions have
  // released theirs, so the two tier capacities bound the live entries; the
  // spare matches the near tier's spare slot.
  const std::size_t entries = config.memory_blocks + near.capacity_blocks() + 1;
  ULC_REQUIRE(entries < kNone, "cache too large for 32-bit descriptor indices");
  // Zeroed here so first-touch page faults are paid at construction, not on
  // the first requests that land in each buffer.
  arena_.resize(config.block_size * config.memory_blocks);
  free_buffers_.reserve(config.memory_blocks);
  for (std::size_t i = config.memory_blocks; i-- > 0;)
    free_buffers_.push_back(static_cast<std::uint32_t>(i));
  descriptors_.resize(entries);
  for (std::size_t i = entries; i-- > 0;) {
    descriptors_[i].next_free = free_descriptor_;
    free_descriptor_ = static_cast<std::uint32_t>(i);
  }
  index_.reserve(entries);
  scratch_.resize(config.block_size);
}

BlockCache::~BlockCache() {
  // Durability on destruction: push dirty data to the origin.
  flush();
}

std::uint32_t BlockCache::lookup(BlockId block) const {
  const std::uint32_t* index = index_.find(block);
  return index == nullptr ? kNone : *index;
}

std::uint32_t BlockCache::lookup_served(BlockId block,
                                        const UlcAccess& outcome) const {
  const std::uint32_t index = lookup(block);
  const std::uint8_t flags = index == kNone ? 0 : descriptors_[index].flags;
  if (outcome.hit_level == 0) {
    ULC_ENSURE((flags & Descriptor::kInRam) != 0,
               "engine says RAM hit but the block holds no RAM buffer");
  } else if (outcome.hit_level == 1) {
    ULC_ENSURE((flags & Descriptor::kInNear) != 0,
               "engine says near-tier hit but the descriptor disagrees");
  } else {
    ULC_ENSURE(index == kNone, "engine says miss but the block is cached");
  }
  return index;
}

std::uint32_t BlockCache::acquire_descriptor(BlockId block,
                                             std::uint8_t flags) {
  ULC_REQUIRE(free_descriptor_ != kNone,
              "descriptor table exhausted: engine placement must bound it");
  const std::uint32_t index = free_descriptor_;
  Descriptor& d = descriptors_[index];
  free_descriptor_ = d.next_free;
  d.block = block;
  d.flags = flags;
  index_.insert_new(block, index);
  return index;
}

void BlockCache::release_descriptor(std::uint32_t index) {
  Descriptor& d = descriptors_[index];
  index_.erase(d.block);
  d.flags = 0;
  d.next_free = free_descriptor_;
  free_descriptor_ = index;
}

std::uint32_t BlockCache::acquire_buffer() {
  ULC_REQUIRE(!free_buffers_.empty(),
              "RAM pool exhausted: engine placement must bound residency");
  const std::uint32_t index = free_buffers_.back();
  free_buffers_.pop_back();
  return index;
}

void BlockCache::release_buffer(std::uint32_t index) {
  free_buffers_.push_back(index);
}

void BlockCache::set_writeback_journal(WritebackSink* journal) {
  std::lock_guard<SpinThenParkMutex> guard(lock_);
  journal_ = journal;
}

void BlockCache::set_placement_listener(PlacementListener* listener,
                                        std::uint32_t shard) {
  std::lock_guard<SpinThenParkMutex> guard(lock_);
  listener_ = listener;
  shard_id_ = shard;
}

void BlockCache::notify(BlockId block, PlacementEventKind kind) {
  if (listener_ != nullptr)
    listener_->on_placement(PlacementEvent{block, shard_id_, kind});
}

void BlockCache::writeback(BlockId block, std::size_t from,
                           std::span<const std::byte> contents) {
  if (journal_ != nullptr) {
    const std::uint64_t seq = journal_->append(
        block, from, static_cast<SizeUnits>(config_.block_size));
    origin_.write(block, contents);
    journal_->mark_written(seq);
    journal_->ack(seq);
  } else {
    origin_.write(block, contents);
  }
  bump(counters_.writebacks);
  notify(block, PlacementEventKind::kWriteback);
}

void BlockCache::handle_demotions(const UlcAccess& outcome) {
  for (const DemoteCmd& cmd : outcome.demotions) {
    const std::uint32_t index = lookup(cmd.block);
    ULC_ENSURE(index != kNone, "demoted block has no descriptor");
    Descriptor& d = descriptors_[index];
    const bool dirty = (d.flags & Descriptor::kDirty) != 0;
    if (cmd.from == 0) {
      ULC_ENSURE((d.flags & Descriptor::kInRam) != 0,
                 "demoted block not resident in RAM");
      const std::byte* data = buffer_data(d.buffer);
      if (cmd.to == 1) {
        near_.store(cmd.block, std::span(data, config_.block_size));
        bump(counters_.demotions);
        notify(cmd.block, PlacementEventKind::kDemote);
        d.flags = static_cast<std::uint8_t>((d.flags & Descriptor::kDirty) |
                                            Descriptor::kInNear);
        release_buffer(d.buffer);
      } else {
        // Discard from RAM: dirty data must reach the origin first. The
        // RAM buffer is freed only after the write-back returns.
        if (dirty) writeback(cmd.block, 0, std::span(data, config_.block_size));
        notify(cmd.block, PlacementEventKind::kDiscard);
        release_buffer(d.buffer);
        release_descriptor(index);
      }
    } else {
      // Leaving the near tier; in a two-tier cache that means discard.
      ULC_ENSURE(cmd.to == kLevelOut, "two-tier cache demotes near-tier blocks out");
      ULC_ENSURE((d.flags & Descriptor::kInNear) != 0,
                 "demoted block not in the near tier");
      if (dirty) {
        // Pin for the write-back window: the tier refuses to evict the
        // block while its bytes are being copied out.
        near_.pin(cmd.block);
        const bool ok = near_.fetch(cmd.block, scratch_);
        ULC_ENSURE(ok, "dirty near-tier block missing");
        writeback(cmd.block, 1, scratch_);
        near_.unpin(cmd.block);
      }
      near_.evict(cmd.block);
      notify(cmd.block, PlacementEventKind::kDiscard);
      release_descriptor(index);
    }
  }
}

void BlockCache::fetch_from_below(BlockId block, const UlcAccess& outcome,
                                  std::span<std::byte> out) {
  if (outcome.hit_level == 1) {
    const bool ok = near_.fetch(block, out);
    ULC_ENSURE(ok, "engine says near-tier hit but the tier lacks the block");
  } else {
    origin_.read(block, out);
  }
}

std::byte* BlockCache::place_in_ram(BlockId block, std::uint32_t index,
                                    const UlcAccess& outcome, bool dirtying) {
  if (index == kNone) index = acquire_descriptor(block, 0);
  Descriptor& d = descriptors_[index];
  if ((d.flags & Descriptor::kInRam) == 0) {
    d.buffer = acquire_buffer();
    notify(block, outcome.hit_level == 1 ? PlacementEventKind::kPromote
                                         : PlacementEventKind::kStore);
  }
  const std::uint8_t dirty = dirtying ? Descriptor::kDirty : 0;
  d.flags = static_cast<std::uint8_t>((d.flags & Descriptor::kDirty) |
                                      Descriptor::kInRam | dirty);
  return buffer_data(d.buffer);
}

void BlockCache::place_below_ram(BlockId block, std::uint32_t index,
                                 const UlcAccess& outcome,
                                 std::span<const std::byte> contents,
                                 bool dirtying) {
  if (outcome.placed_level == 1) {
    // Stays at / goes to the near tier. On a near-tier read hit nothing
    // moves; writes and fresh placements must store the bytes.
    if (dirtying || outcome.hit_level != 1) {
      near_.store(block, contents);
      if (outcome.hit_level != 1) notify(block, PlacementEventKind::kStore);
    }
    if (index == kNone) index = acquire_descriptor(block, Descriptor::kInNear);
    if (dirtying) descriptors_[index].flags |= Descriptor::kDirty;
  } else if (dirtying) {
    // Not cached anywhere: a write goes straight to the origin (a read
    // retains nothing).
    writeback(block, 0, contents);
  }
}

void BlockCache::read(BlockId block, std::span<std::byte> out) {
  ULC_REQUIRE(out.size() >= config_.block_size, "read buffer too small");
  const std::span<std::byte> dst = out.first(config_.block_size);
  std::lock_guard<SpinThenParkMutex> guard(lock_);
  bump(counters_.reads);
  const UlcAccess& a = engine_.access(block);
  const std::uint32_t index = lookup_served(block, a);
  if (a.hit_level == 0) {
    bump(counters_.memory_hits);
  } else if (a.hit_level == 1) {
    bump(counters_.near_hits);
  } else {
    bump(counters_.origin_reads);
  }
  handle_demotions(a);

  // Each tier move is one copy: a block bound for RAM is fetched straight
  // into its buffer and copied out from there; any other block is fetched
  // straight into `out`, and a near-tier placement stores from it.
  if (a.placed_level == 0) {
    std::byte* buffer = place_in_ram(block, index, a, /*dirtying=*/false);
    if (a.hit_level != 0) {
      fetch_from_below(block, a, std::span(buffer, config_.block_size));
      if (a.hit_level == 1) near_.evict(block);  // exclusive move up
    }
    std::memcpy(dst.data(), buffer, config_.block_size);
  } else {
    fetch_from_below(block, a, dst);
    place_below_ram(block, index, a, dst, /*dirtying=*/false);
  }
}

void BlockCache::write(BlockId block, std::span<const std::byte> in) {
  ULC_REQUIRE(in.size() >= config_.block_size, "write buffer too small");
  const std::span<const std::byte> src = in.first(config_.block_size);
  std::lock_guard<SpinThenParkMutex> guard(lock_);
  bump(counters_.writes);
  const UlcAccess& a = engine_.access(block);
  const std::uint32_t index = lookup_served(block, a);
  if (a.hit_level == 0) {
    bump(counters_.memory_hits);
  } else if (a.hit_level == 1) {
    bump(counters_.near_hits);
  }
  handle_demotions(a);

  // A whole-block write does not need the old contents; the new bytes are
  // placed per the engine's direction.
  if (a.placed_level == 0) {
    std::memcpy(place_in_ram(block, index, a, /*dirtying=*/true), src.data(),
                config_.block_size);
    if (a.hit_level == 1) near_.evict(block);  // exclusive move up
  } else {
    place_below_ram(block, index, a, src, /*dirtying=*/true);
  }
}

void BlockCache::write_back_dirty_locked(Descriptor& d) {
  if ((d.flags & Descriptor::kInRam) != 0) {
    writeback(d.block, 0, std::span(buffer_data(d.buffer), config_.block_size));
  } else {
    near_.pin(d.block);
    const bool ok = near_.fetch(d.block, scratch_);
    ULC_ENSURE(ok, "dirty block missing from both tiers");
    writeback(d.block, 1, scratch_);
    near_.unpin(d.block);
  }
  d.flags &= static_cast<std::uint8_t>(~Descriptor::kDirty);
}

std::vector<BlockId> BlockCache::dirty_blocks_locked() const {
  // Ascending block order: the table's slot order must not leak into the
  // sequence of origin writes (determinism across runs and platforms).
  std::vector<BlockId> out;
  for (const Descriptor& d : descriptors_)
    if ((d.flags & Descriptor::kDirty) != 0) out.push_back(d.block);
  std::sort(out.begin(), out.end());
  return out;
}

void BlockCache::flush() {
  std::lock_guard<SpinThenParkMutex> guard(lock_);
  for (BlockId block : dirty_blocks_locked())
    write_back_dirty_locked(descriptors_[lookup(block)]);
}

std::vector<BlockId> BlockCache::dirty_blocks() const {
  std::lock_guard<SpinThenParkMutex> guard(lock_);
  return dirty_blocks_locked();
}

void BlockCache::flush_block(BlockId block) {
  std::lock_guard<SpinThenParkMutex> guard(lock_);
  const std::uint32_t index = lookup(block);
  if (index == kNone || (descriptors_[index].flags & Descriptor::kDirty) == 0)
    return;
  write_back_dirty_locked(descriptors_[index]);
}

BlockCacheStats BlockCache::stats() const {
  // Deliberately lock-free: concurrent readers/writers publish each counter
  // with relaxed atomics, so a monitoring thread never waits behind IO.
  BlockCacheStats out;
  out.memory_hits = counters_.memory_hits.load(std::memory_order_relaxed);
  out.near_hits = counters_.near_hits.load(std::memory_order_relaxed);
  out.origin_reads = counters_.origin_reads.load(std::memory_order_relaxed);
  out.demotions = counters_.demotions.load(std::memory_order_relaxed);
  out.writebacks = counters_.writebacks.load(std::memory_order_relaxed);
  out.reads = counters_.reads.load(std::memory_order_relaxed);
  out.writes = counters_.writes.load(std::memory_order_relaxed);
  out.lock_parks = lock_.parks();
  return out;
}

bool BlockCache::resident_in_memory(BlockId block) const {
  std::lock_guard<SpinThenParkMutex> guard(lock_);
  const std::uint32_t index = lookup(block);
  return index != kNone &&
         (descriptors_[index].flags & Descriptor::kInRam) != 0;
}

}  // namespace ulc
