// Storage-tier interfaces for the embeddable runtime cache, plus in-memory
// and file-backed implementations.
//
// The runtime's hierarchy is: RAM buffer pool (managed by BlockCache) over a
// NearTier (e.g. an SSD cache file) over the Origin (the real data source).
// The ULC engine decides which tier holds which block; these interfaces
// move the actual bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "trace/types.h"
#include "util/flat_hash.h"

namespace ulc {

// The second cache tier. It stores whatever blocks the ULC engine directs to
// it; it makes no replacement decisions of its own (capacity is enforced by
// the engine's placement, the tier only reports it).
//
// Pinning (bio.c-style buffer refcounts): a writer pins a block for the
// duration of a write-back so the block cannot be evicted out from under
// the in-flight IO. Pins nest; evict() of a pinned block is a caller
// contract violation and aborts.
class NearTier {
 public:
  virtual ~NearTier() = default;

  // Reads a block previously store()d; returns false if absent.
  virtual bool fetch(BlockId block, std::span<std::byte> out) = 0;
  // Stores (or overwrites) a block.
  virtual void store(BlockId block, std::span<const std::byte> data) = 0;
  // Drops a block (no data movement). Refuses (aborts) while pinned.
  void evict(BlockId block);

  // Refcounted pin/unpin around an in-flight write-back.
  void pin(BlockId block);
  void unpin(BlockId block);
  std::uint32_t pin_count(BlockId block) const;

  virtual std::size_t capacity_blocks() const = 0;
  virtual std::size_t block_size() const = 0;

 protected:
  // The actual drop, called only once the pin check has passed.
  virtual void do_evict(BlockId block) = 0;

 private:
  FlatMap<BlockId, std::uint32_t> pins_;  // pinned blocks only
};

// The authoritative backing store.
class Origin {
 public:
  virtual ~Origin() = default;

  // Reads a block; blocks never written before read as zeroes.
  virtual void read(BlockId block, std::span<std::byte> out) = 0;
  virtual void write(BlockId block, std::span<const std::byte> data) = 0;
};

// RAM-backed implementations (tests, small data sets). The memory near tier
// is one contiguous slot arena sized at construction, so a store copies into
// a free slot and never allocates.
std::unique_ptr<NearTier> make_memory_near_tier(std::size_t capacity_blocks,
                                                std::size_t block_size = 8192);
std::unique_ptr<Origin> make_memory_origin(std::size_t block_size = 8192);

// File-backed implementations: the near tier keeps a slot-mapped cache file
// (an SSD cache in practice); the origin reads/writes a flat image file at
// block * block_size offsets, growing it on demand.
std::unique_ptr<NearTier> make_file_near_tier(const std::string& path,
                                              std::size_t capacity_blocks,
                                              std::size_t block_size = 8192);
std::unique_ptr<Origin> make_file_origin(const std::string& path,
                                         std::size_t block_size = 8192);

}  // namespace ulc
