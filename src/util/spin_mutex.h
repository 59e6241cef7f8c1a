// SpinThenParkMutex — a mutex for short critical sections that are sometimes
// contended: it spins briefly before it sleeps.
//
// std::mutex parks on a futex the first time it finds the lock held. When the
// holder's critical section is a microsecond of cache metadata and block
// copies, that sleep/wake round trip costs several times the section itself,
// and the waiter's core idles meanwhile. This lock spins first, for about as
// long as the longest section it guards, and parks only when that fails.
//
// Protocol: a three-state word (kFree, kHeld, kHeldWithWaiters), after
// Drepper's "Futexes Are Tricky" mutex. lock() makes one CAS; on failure it
// spins up to kSpinLimit times, each time a cpu_relax() and a read-only check
// of the word before any CAS (so spinners share the cache line instead of
// bouncing it). If the lock is still held it marks the word kHeldWithWaiters
// and parks with std::atomic::wait. unlock() stores kFree and calls
// notify_one only when the word said someone may be parked, so an
// uncontended unlock never enters the kernel. A waiter that wakes re-marks
// the word kHeldWithWaiters before it retries, so a thread still parked is
// never left without a notify.
//
// It is Lockable (lock, try_lock, unlock): std::lock_guard works unchanged.
// It is not fair and not recursive, and it does not pair with
// std::condition_variable; locks that wait on a condition keep std::mutex.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/simd.h"

namespace ulc {

class SpinThenParkMutex {
 public:
  // Spin budget, in cpu_relax() iterations. It has to outlast the longest
  // critical section it guards, or a waiter parks anyway and pays the futex
  // round trip on top of the wait: in the serving runtime that is a near-tier
  // promotion under a cache shard lock (~1.7 us: demote the RAM victim, copy
  // the block up, copy it out) or a block write under the shared origin lock,
  // and a waiter may queue behind one or two of them. One x86 `pause` took
  // 21-24 ns on the 4-vCPU host of DESIGN.md §10's measurements, so 256
  // iterations spin for ~5.5 us. In the runs that sized it, a 64-iteration
  // budget (~1.4 us) left serve_churn's read p99 at ~16 us; 256 brought it
  // under 10 us.
  static constexpr int kSpinLimit = 256;

  SpinThenParkMutex() = default;
  SpinThenParkMutex(const SpinThenParkMutex&) = delete;
  SpinThenParkMutex& operator=(const SpinThenParkMutex&) = delete;

  void lock() {
    if (!try_lock()) lock_contended();
  }

  bool try_lock() {
    std::uint32_t expected = kFree;
    return state_.compare_exchange_strong(expected, kHeld,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() {
    if (state_.exchange(kFree, std::memory_order_release) == kHeldWithWaiters)
      state_.notify_one();
  }

  // How many times a lock() call went to sleep (a thread can park more than
  // once per call if another thread takes the lock first after its wake).
  // Counted on the slow path only; a relaxed read, safe from any thread.
  std::uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kHeld = 1;
  static constexpr std::uint32_t kHeldWithWaiters = 2;

  void lock_contended() {
    for (int i = 0; i < kSpinLimit; ++i) {
      cpu_relax();
      if (state_.load(std::memory_order_relaxed) == kFree && try_lock()) return;
    }
    // Claim the lock or announce a waiter in one step: exchange returns
    // kFree only when the lock was released, and then this thread owns it
    // (with the word left at kHeldWithWaiters, which costs at most one
    // spare notify at its unlock).
    while (state_.exchange(kHeldWithWaiters, std::memory_order_acquire) !=
           kFree) {
      parks_.fetch_add(1, std::memory_order_relaxed);
      state_.wait(kHeldWithWaiters, std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint32_t> state_{kFree};
  std::atomic<std::uint64_t> parks_{0};
};

}  // namespace ulc
