// Bounded multi-producer single-consumer queue for the serving runtime.
//
// The sharded serving path routes demotions and directory updates from the
// shard client engines to the gLRU directory server over these queues; the
// bound is the backpressure mechanism (a client that outruns the server
// blocks in push() instead of growing an unbounded backlog — the same
// contract OrangeFS's ucache uses for its cross-process message queues).
//
// Ordering contract: the queue is FIFO over the *enqueue* order, which a
// single internal mutex makes a total order. With one producer that order is
// the producer's program order, so a per-shard consumer applies a
// deterministic sequence; with several producers the order is whatever
// interleaving the mutex admits (per-producer subsequences stay in order).
//
// The consumer drains in batches (pop_wait) to amortize the lock: it swaps
// the whole backlog out for its own (cleared) vector, so the hand-off is
// O(1) under the lock and the two buffers trade places with no allocation
// once both have grown.
//
// Producers wake a waiting consumer only when the depth reaches half the
// capacity, (capacity + 1) / 2, not on every push: a futex wake per item
// costs more than the item, and the producer usually holds a cache shard
// lock while it pushes. Items below that depth wait until the next
// crossing, a kick(), or close(), so a consumer lags its producers by at
// most half the bound. A caller that needs the tail applied now (a drain
// barrier) calls kick().
// close() wakes everyone: producers see push() fail, the consumer drains
// what is left and then gets 0.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/ensure.h"

namespace ulc {

struct MpscStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t rejected = 0;        // try_push on a full queue / push after close
  std::uint64_t producer_waits = 0;  // pushes that had to block on a full queue
  std::uint64_t max_depth = 0;       // high-water mark of queued items
  std::uint64_t wakeups = 0;         // consumer notifies from pushes and kick()
};

template <typename T>
class BoundedMpsc {
 public:
  explicit BoundedMpsc(std::size_t capacity)
      : capacity_(capacity), wake_depth_((capacity + 1) / 2) {
    ULC_REQUIRE(capacity >= 1, "queue capacity must be positive");
  }

  BoundedMpsc(const BoundedMpsc&) = delete;
  BoundedMpsc& operator=(const BoundedMpsc&) = delete;

  // Blocks while the queue is full (backpressure). Returns false only when
  // the queue has been closed, in which case the item is dropped.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(lock_);
    if (items_.size() >= capacity_ && !closed_) {
      ++stats_.producer_waits;
      not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    }
    if (closed_) {
      ++stats_.rejected;
      return false;
    }
    enqueue_locked(std::move(item));
    return true;
  }

  // Non-blocking variant: false when full or closed (item dropped).
  bool try_push(T item) {
    std::lock_guard<std::mutex> lock(lock_);
    if (closed_ || items_.size() >= capacity_) {
      ++stats_.rejected;
      return false;
    }
    enqueue_locked(std::move(item));
    return true;
  }

  // Consumer side: clears `out`, then returns at once if items are queued,
  // else blocks until a wake (half-capacity push, kick() or close()); swaps
  // every queued item into `out`, in FIFO order. Returns the number of items
  // delivered; 0 means "closed and fully drained" — the consumer's exit
  // signal.
  std::size_t pop_wait(std::vector<T>& out) {
    out.clear();
    std::unique_lock<std::mutex> lock(lock_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    items_.swap(out);
    stats_.dequeued += out.size();
    if (!out.empty()) not_full_.notify_all();
    return out.size();
  }

  // Wakes the consumer if anything is queued, whatever the depth. Producers
  // leave a queue shallower than half the capacity unannounced; a caller
  // waiting for those items to be consumed kicks first.
  void kick() {
    std::lock_guard<std::mutex> lock(lock_);
    if (items_.empty()) return;
    ++stats_.wakeups;
    not_empty_.notify_one();
  }

  // After close() every push fails and pop_wait drains to 0.
  void close() {
    std::lock_guard<std::mutex> lock(lock_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(lock_);
    return closed_;
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(lock_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  MpscStats stats() const {
    std::lock_guard<std::mutex> lock(lock_);
    return stats_;
  }

 private:
  void enqueue_locked(T item) {
    items_.push_back(std::move(item));
    ++stats_.enqueued;
    if (items_.size() > stats_.max_depth) stats_.max_depth = items_.size();
    // pop_wait empties the queue, so depth climbs through wake_depth_ once
    // per consumer batch: one wake per wake_depth_ items at most.
    if (items_.size() == wake_depth_) {
      ++stats_.wakeups;
      not_empty_.notify_one();
    }
  }

  const std::size_t capacity_;
  const std::size_t wake_depth_;  // depth at which a push wakes the consumer
  mutable std::mutex lock_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> items_;  // FIFO: pushed at the back, handed off whole
  bool closed_ = false;
  MpscStats stats_;
};

}  // namespace ulc
