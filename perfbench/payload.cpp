#include "payload.h"

#include <cstring>

namespace perfbench {

namespace {

constexpr std::uint64_t kMagic = 0x554c43424c4f434bULL;  // "ULCBLOCK"
constexpr std::uint64_t kStride = 0x9e3779b97f4a7c15ULL;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Word i >= 2 of a payload is base + i * kStride: derived from the header,
// different for every (block, version), and cheap to check in one pass.
std::uint64_t fill_base(std::uint64_t block, std::uint64_t packed) {
  return mix(block * kStride ^ mix(packed));
}

}  // namespace

void fill_payload(std::span<std::byte> out, std::uint64_t block, Version version) {
  const std::size_t words = out.size() / 8;
  const std::uint64_t packed = version.packed();
  const std::uint64_t header[2] = {block ^ kMagic, packed};
  std::memcpy(out.data(), header, sizeof header);
  std::uint64_t w = fill_base(block, packed) + 2 * kStride;
  for (std::size_t i = 2; i < words; ++i, w += kStride)
    std::memcpy(out.data() + i * 8, &w, 8);
}

PayloadCheck check_payload(std::span<const std::byte> data, std::uint64_t block,
                           Version* version) {
  const std::size_t words = data.size() / 8;
  std::uint64_t header[2];
  std::memcpy(header, data.data(), sizeof header);
  if (header[0] == 0 && header[1] == 0) {
    std::uint64_t any = 0;
    for (std::size_t i = 2; i < words; ++i) {
      std::uint64_t w;
      std::memcpy(&w, data.data() + i * 8, 8);
      any |= w;
    }
    return any == 0 ? PayloadCheck::kZero : PayloadCheck::kCorrupt;
  }
  if (header[0] != (block ^ kMagic)) return PayloadCheck::kCorrupt;
  std::uint64_t diff = 0;
  std::uint64_t want = fill_base(block, header[1]) + 2 * kStride;
  for (std::size_t i = 2; i < words; ++i, want += kStride) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + i * 8, 8);
    diff |= w ^ want;
  }
  if (diff != 0) return PayloadCheck::kCorrupt;
  *version = Version::unpack(header[1]);
  return version->writer == 0 || version->seq == 0 ? PayloadCheck::kCorrupt
                                                   : PayloadCheck::kValid;
}

namespace {

class CorruptingOrigin final : public ulc::Origin {
 public:
  CorruptingOrigin(std::unique_ptr<ulc::Origin> inner, std::uint64_t arm_after_reads)
      : inner_(std::move(inner)), arm_after_(arm_after_reads) {}

  void read(ulc::BlockId block, std::span<std::byte> out) override {
    inner_->read(block, out);
    if (!armed_ && reads_++ == arm_after_) {
      armed_ = true;
      victim_ = block;
    }
    if (armed_ && block == victim_) out[out.size() / 2] ^= std::byte{0x5a};
  }
  void write(ulc::BlockId block, std::span<const std::byte> data) override {
    inner_->write(block, data);
  }

 private:
  std::unique_ptr<ulc::Origin> inner_;
  std::uint64_t arm_after_;
  std::uint64_t reads_ = 0;
  bool armed_ = false;
  ulc::BlockId victim_ = 0;
};

}  // namespace

std::unique_ptr<ulc::Origin> make_corrupting_origin(std::unique_ptr<ulc::Origin> inner,
                                                    std::uint64_t arm_after_reads) {
  return std::make_unique<CorruptingOrigin>(std::move(inner), arm_after_reads);
}

}  // namespace perfbench
