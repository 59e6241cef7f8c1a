// Group-of-16 byte probing primitives and the software-prefetch wrapper.
//
// This header is the ONLY place raw SIMD intrinsics are allowed (enforced by
// ulc_lint's `raw-intrinsic` rule): every consumer works through the Group16
// policy types below, so the portable fallback can never silently rot — the
// scalar implementation is compiled, tested and differentially fuzzed against
// the SIMD one on every platform (tests/flat_hash_test.cpp).
//
// Semantics contract (identical across all three implementations, which is
// what makes SIMD/scalar builds bit-compatible):
//   * a "group" is 16 consecutive control bytes (any alignment — the x86
//     path uses unaligned loads, which cost the same as aligned ones on
//     every SSE2-era-onward core);
//   * match_byte(g, b)  -> bit i set  iff  g[i] == b;
//   * match_empty(g)    -> bit i set  iff  g[i] == kCtrlEmpty;
//   * match_free(g)     -> bit i set  iff  g[i] is kCtrlEmpty or
//     kCtrlTombstone (both have the high bit set; full bytes are 7-bit hash
//     fragments with the high bit clear);
//   * bits are numbered by byte index (bit 0 = first byte), so iterating set
//     bits low-to-high visits slots in ascending address order — the probe
//     order every implementation must share.
//
// Implementation selection is compile-time: SSE2 on x86-64 (baseline, no
// -m flags needed), NEON on AArch64, the portable scalar loop elsewhere.
// -DULC_FORCE_SCALAR_GROUPS=ON forces the scalar path on any platform; the
// throughput gate measures that build too (BENCH_throughput.json), so the
// fallback's performance is tracked, not just its correctness.
#pragma once

#include <cstdint>

#if defined(ULC_FORCE_SCALAR_GROUPS)
// Portable fallback forced (differential tests, fallback gate measurement).
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define ULC_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define ULC_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ulc {

// Control-byte values shared by every group-probed table. Full slots store
// the 7-bit hash fragment (high bit clear), so one match_byte() never
// confuses a sentinel with a fragment.
inline constexpr std::uint8_t kCtrlEmpty = 0x80;
inline constexpr std::uint8_t kCtrlTombstone = 0x81;
inline constexpr std::size_t kGroupWidth = 16;

// Best-effort prefetch into the closest cache level; a no-op where the
// builtin is unavailable. Issuing one is always safe (prefetches never
// fault), so callers need no validity guard beyond "pointer-shaped".
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

// Write-intent variant: requests the line in exclusive state, so a store
// that follows skips the read-for-ownership stall.
inline void prefetch_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

// Spin-wait hint for one iteration of a busy-wait loop: x86 `pause`, AArch64
// `yield`. It stops the spinning core from flooding the lock's cache line
// with speculative loads and gives a sibling hyperthread the pipeline. A
// no-op in the scalar build, which compiles no ISA-specific instruction.
inline void cpu_relax() {
#if defined(ULC_SIMD_SSE2)
  _mm_pause();
#elif defined(ULC_SIMD_NEON) && defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

#if defined(ULC_SIMD_SSE2)

// SSE2 group probe: one 16-byte load + byte-compare + movemask.
struct Group16Simd {
  static constexpr const char* kName = "sse2";
  static std::uint32_t match_byte(const std::uint8_t* g, std::uint8_t b) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(g));
    const __m128i m = _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(b)));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(m));
  }
  static std::uint32_t match_empty(const std::uint8_t* g) {
    return match_byte(g, kCtrlEmpty);
  }
  static std::uint32_t match_free(const std::uint8_t* g) {
    // Empty and tombstone are the only bytes with the sign bit set, so the
    // movemask of the raw vector is exactly the free mask.
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(g));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(v));
  }
};

#elif defined(ULC_SIMD_NEON)

// NEON group probe: compare, then narrow the 128-bit lane mask to a 64-bit
// nibble mask and spread it down to one bit per byte.
struct Group16Simd {
  static constexpr const char* kName = "neon";
  static std::uint32_t mask_of(uint8x16_t eq) {
    // vshrn narrows each 16-bit lane's high nibble; every matched byte
    // contributes one nibble of 0xF in the 64-bit result.
    const uint8x8_t narrowed =
        vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
    const std::uint64_t nibbles =
        vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      if ((nibbles >> (i * 4)) & 0x1) mask |= (1u << i);
    }
    return mask;
  }
  static std::uint32_t match_byte(const std::uint8_t* g, std::uint8_t b) {
    return mask_of(vceqq_u8(vld1q_u8(g), vdupq_n_u8(b)));
  }
  static std::uint32_t match_empty(const std::uint8_t* g) {
    return match_byte(g, kCtrlEmpty);
  }
  static std::uint32_t match_free(const std::uint8_t* g) {
    // Sign bit set == empty or tombstone, as in the SSE2 path.
    return mask_of(vcgeq_u8(vld1q_u8(g), vdupq_n_u8(0x80)));
  }
};

#endif

// Portable scalar fallback — the reference semantics the SIMD paths must
// reproduce bit-for-bit (differentially fuzzed in flat_hash_test).
struct Group16Scalar {
  static constexpr const char* kName = "scalar";
  static std::uint32_t match_byte(const std::uint8_t* g, std::uint8_t b) {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      if (g[i] == b) mask |= (1u << i);
    }
    return mask;
  }
  static std::uint32_t match_empty(const std::uint8_t* g) {
    return match_byte(g, kCtrlEmpty);
  }
  static std::uint32_t match_free(const std::uint8_t* g) {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      if (g[i] & 0x80) mask |= (1u << i);
    }
    return mask;
  }
};

#if defined(ULC_SIMD_SSE2) || defined(ULC_SIMD_NEON)
using Group16 = Group16Simd;
#else
using Group16 = Group16Scalar;
#endif

}  // namespace ulc
