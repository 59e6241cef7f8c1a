#include "runtime/tier.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "util/ensure.h"

namespace ulc {

void NearTier::evict(BlockId block) {
  ULC_REQUIRE(pin_count(block) == 0,
              "evicting a pinned block (write-back still in flight)");
  do_evict(block);
}

void NearTier::pin(BlockId block) {
  if (std::uint32_t* count = pins_.find(block)) {
    ++*count;
  } else {
    pins_.insert_new(block, 1);
  }
}

void NearTier::unpin(BlockId block) {
  std::uint32_t* count = pins_.find(block);
  ULC_REQUIRE(count != nullptr, "unpin of a block that holds no pin");
  if (--*count == 0) pins_.erase(block);
}

std::uint32_t NearTier::pin_count(BlockId block) const {
  const std::uint32_t* count = pins_.find(block);
  return count == nullptr ? 0 : *count;
}

namespace {

// Slot arena: capacity + 1 fixed slots in one buffer, a block -> slot index
// and a free-slot stack. The spare slot is needed because a promotion stores
// the RAM victim it demotes before it evicts the promoted block, so the tier
// briefly holds one block over its capacity.
class MemoryNearTier final : public NearTier {
 public:
  MemoryNearTier(std::size_t capacity, std::size_t block_size)
      : capacity_(capacity),
        block_size_(block_size),
        // Zeroed here so first-touch page faults are paid at construction,
        // not by the stores that first land in each slot.
        arena_((capacity + 1) * block_size) {
    ULC_REQUIRE(capacity + 1 < ~std::uint32_t{0},
                "near tier too large for 32-bit slot indices");
    free_slots_.reserve(capacity + 1);
    for (std::size_t i = capacity + 1; i-- > 0;)
      free_slots_.push_back(static_cast<std::uint32_t>(i));
    slots_.reserve(capacity + 1);
  }

  bool fetch(BlockId block, std::span<std::byte> out) override {
    ULC_REQUIRE(out.size() >= block_size_, "fetch buffer too small");
    const std::uint32_t* slot = slots_.find(block);
    if (slot == nullptr) return false;
    std::memcpy(out.data(), slot_data(*slot), block_size_);
    return true;
  }

  void store(BlockId block, std::span<const std::byte> data) override {
    ULC_REQUIRE(data.size() >= block_size_, "store buffer too small");
    const std::uint32_t* found = slots_.find(block);
    std::uint32_t slot;
    if (found != nullptr) {
      slot = *found;
    } else {
      ULC_REQUIRE(!free_slots_.empty(),
                  "near tier overfilled: the placement engine must bound it");
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_.insert_new(block, slot);
    }
    std::memcpy(slot_data(slot), data.data(), block_size_);
  }

  std::size_t capacity_blocks() const override { return capacity_; }
  std::size_t block_size() const override { return block_size_; }

 protected:
  void do_evict(BlockId block) override {
    const std::uint32_t* slot = slots_.find(block);
    if (slot == nullptr) return;
    free_slots_.push_back(*slot);
    slots_.erase(block);
  }

 private:
  std::byte* slot_data(std::uint32_t slot) {
    return arena_.data() + std::size_t{slot} * block_size_;
  }

  std::size_t capacity_;
  std::size_t block_size_;
  std::vector<std::byte> arena_;
  FlatMap<BlockId, std::uint32_t> slots_;
  std::vector<std::uint32_t> free_slots_;
};

class MemoryOrigin final : public Origin {
 public:
  explicit MemoryOrigin(std::size_t block_size) : block_size_(block_size) {}

  void read(BlockId block, std::span<std::byte> out) override {
    ULC_REQUIRE(out.size() >= block_size_, "read buffer too small");
    auto it = store_.find(block);
    if (it == store_.end()) {
      std::memset(out.data(), 0, block_size_);
      return;
    }
    std::memcpy(out.data(), it->second.data(), block_size_);
  }

  void write(BlockId block, std::span<const std::byte> data) override {
    ULC_REQUIRE(data.size() >= block_size_, "write buffer too small");
    auto& slot = store_[block];
    slot.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(block_size_));
  }

 private:
  std::size_t block_size_;
  // The authoritative store grows with every block ever written and has no
  // capacity to size an arena by; one heap block per written block is the
  // price of a RAM-backed origin.
  std::unordered_map<BlockId, std::vector<std::byte>> store_;  // ulc-lint: allow(hot-container)
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_rw(const std::string& path) {
  // Open for update, creating if needed.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (!f) f = std::fopen(path.c_str(), "w+b");
  ULC_REQUIRE(f != nullptr, "cannot open tier file");
  return FilePtr(f);
}

// Slot-mapped cache file: block contents live in fixed slots; a directory
// maps block id -> slot, with a free list of vacated slots.
class FileNearTier final : public NearTier {
 public:
  FileNearTier(const std::string& path, std::size_t capacity, std::size_t block_size)
      : file_(open_rw(path)), capacity_(capacity), block_size_(block_size) {}

  bool fetch(BlockId block, std::span<std::byte> out) override {
    ULC_REQUIRE(out.size() >= block_size_, "fetch buffer too small");
    const std::size_t* slot = slots_.find(block);
    if (slot == nullptr) return false;
    read_slot(*slot, out);
    return true;
  }

  void store(BlockId block, std::span<const std::byte> data) override {
    ULC_REQUIRE(data.size() >= block_size_, "store buffer too small");
    std::size_t slot;
    if (const std::size_t* found = slots_.find(block)) {
      slot = *found;
    } else if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_.insert_new(block, slot);
    } else {
      slot = next_slot_++;
      slots_.insert_new(block, slot);
    }
    const long off = static_cast<long>(slot * block_size_);
    ULC_REQUIRE(std::fseek(file_.get(), off, SEEK_SET) == 0, "tier seek failed");
    ULC_REQUIRE(std::fwrite(data.data(), 1, block_size_, file_.get()) == block_size_,
                "tier write failed");
  }

  std::size_t capacity_blocks() const override { return capacity_; }
  std::size_t block_size() const override { return block_size_; }

 protected:
  void do_evict(BlockId block) override {
    const std::size_t* slot = slots_.find(block);
    if (slot == nullptr) return;
    free_slots_.push_back(*slot);
    slots_.erase(block);
  }

 private:
  void read_slot(std::size_t slot, std::span<std::byte> out) {
    const long off = static_cast<long>(slot * block_size_);
    ULC_REQUIRE(std::fseek(file_.get(), off, SEEK_SET) == 0, "tier seek failed");
    ULC_REQUIRE(std::fread(out.data(), 1, block_size_, file_.get()) == block_size_,
                "tier read failed");
  }

  FilePtr file_;
  std::size_t capacity_;
  std::size_t block_size_;
  FlatMap<BlockId, std::size_t> slots_;
  std::vector<std::size_t> free_slots_;
  std::size_t next_slot_ = 0;
};

class FileOrigin final : public Origin {
 public:
  FileOrigin(const std::string& path, std::size_t block_size)
      : file_(open_rw(path)), block_size_(block_size) {}

  void read(BlockId block, std::span<std::byte> out) override {
    ULC_REQUIRE(out.size() >= block_size_, "read buffer too small");
    const long off = static_cast<long>(block * block_size_);
    if (std::fseek(file_.get(), 0, SEEK_END) != 0 ||
        std::ftell(file_.get()) < off + static_cast<long>(block_size_)) {
      std::memset(out.data(), 0, block_size_);  // beyond EOF: zeroes
      return;
    }
    ULC_REQUIRE(std::fseek(file_.get(), off, SEEK_SET) == 0, "origin seek failed");
    ULC_REQUIRE(std::fread(out.data(), 1, block_size_, file_.get()) == block_size_,
                "origin read failed");
  }

  void write(BlockId block, std::span<const std::byte> data) override {
    ULC_REQUIRE(data.size() >= block_size_, "write buffer too small");
    const long off = static_cast<long>(block * block_size_);
    ULC_REQUIRE(std::fseek(file_.get(), off, SEEK_SET) == 0, "origin seek failed");
    ULC_REQUIRE(std::fwrite(data.data(), 1, block_size_, file_.get()) == block_size_,
                "origin write failed");
  }

 private:
  FilePtr file_;
  std::size_t block_size_;
};

}  // namespace

std::unique_ptr<NearTier> make_memory_near_tier(std::size_t capacity_blocks,
                                                std::size_t block_size) {
  return std::make_unique<MemoryNearTier>(capacity_blocks, block_size);
}

std::unique_ptr<Origin> make_memory_origin(std::size_t block_size) {
  return std::make_unique<MemoryOrigin>(block_size);
}

std::unique_ptr<NearTier> make_file_near_tier(const std::string& path,
                                              std::size_t capacity_blocks,
                                              std::size_t block_size) {
  return std::make_unique<FileNearTier>(path, capacity_blocks, block_size);
}

std::unique_ptr<Origin> make_file_origin(const std::string& path,
                                         std::size_t block_size) {
  return std::make_unique<FileOrigin>(path, block_size);
}

}  // namespace ulc
