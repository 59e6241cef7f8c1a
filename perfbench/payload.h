// Self-verifying block payloads for the serving workloads.
//
// Every whole-block write carries a header (block id, writer, sequence
// number) and a fill derived from the header, so any read can be checked on
// its own: the bytes must be all zero (a block never written) or a complete,
// intact payload of the block that was asked for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "runtime/tier.h"

namespace perfbench {

// A writer's identity and per-writer sequence number, packed into one word.
struct Version {
  std::uint32_t writer = 0;  // 1 = warm-up, 2.. = client threads
  std::uint64_t seq = 0;     // strictly increasing per writer, from 1

  std::uint64_t packed() const { return (std::uint64_t{writer} << 48) | seq; }
  static Version unpack(std::uint64_t word) {
    return Version{static_cast<std::uint32_t>(word >> 48), word & ((std::uint64_t{1} << 48) - 1)};
  }
};

// Fills `out` (a whole block, a multiple of 8 bytes) with the payload of
// (block, version).
void fill_payload(std::span<std::byte> out, std::uint64_t block, Version version);

enum class PayloadCheck {
  kZero,     // all zero bytes: a block never written
  kValid,    // an intact payload of the requested block; `version` is set
  kCorrupt,  // anything else
};

PayloadCheck check_payload(std::span<const std::byte> data, std::uint64_t block,
                           Version* version);

// Origin decorator for the benchmark's own test: once `arm_after_reads`
// origin reads have passed, the next block read from the origin is corrupted
// (one byte flipped) on that read and every later read of the same block.
std::unique_ptr<ulc::Origin> make_corrupting_origin(std::unique_ptr<ulc::Origin> inner,
                                                    std::uint64_t arm_after_reads);

}  // namespace perfbench
