// SpinThenParkMutex: mutual exclusion under contention, wake-up of a parked
// waiter, try_lock semantics, and the slow-path park counter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "util/spin_mutex.h"
#include "util/wallclock.h"

namespace ulc {
namespace {

constexpr auto kBound = std::chrono::seconds(20);

// A lost wake-up leaves a thread parked forever, and the future's destructor
// would then wait for it forever. So a wait that runs out of time reports
// the failure and ends the test process instead of hanging it.
template <typename T>
void expect_finishes(std::future<T>& f, const char* what) {
  if (f.wait_for(kBound) == std::future_status::ready) return;
  ADD_FAILURE() << what << " did not finish within the bound: a parked "
                << "thread was never woken";
  std::fflush(stdout);
  std::_Exit(1);
}

// Polls until `pred` holds or the bound runs out; returns whether it held.
template <typename Pred>
bool eventually(Pred pred) {
  const WallTimer timer;
  while (!pred()) {
    if (timer.elapsed_seconds() > static_cast<double>(kBound.count())) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(SpinThenParkMutex, ExcludesUnderContention) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  SpinThenParkMutex m;
  std::uint64_t counter = 0;           // plain: only the lock protects it
  std::atomic<int> inside{0};          // threads inside the critical section
  std::atomic<int> overlaps{0};
  std::vector<std::future<void>> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.push_back(std::async(std::launch::async, [&] {
      for (int i = 0; i < kPerThread; ++i) {
        std::lock_guard<SpinThenParkMutex> guard(m);
        if (inside.fetch_add(1, std::memory_order_relaxed) != 0)
          overlaps.fetch_add(1, std::memory_order_relaxed);
        ++counter;
        inside.fetch_sub(1, std::memory_order_relaxed);
      }
    }));
  }
  for (auto& w : workers) expect_finishes(w, "a contending locker");
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(counter, std::uint64_t{kThreads} * kPerThread);
}

TEST(SpinThenParkMutex, UnlockWakesAParkedWaiter) {
  SpinThenParkMutex m;
  m.lock();
  std::atomic<bool> acquired{false};
  auto waiter = std::async(std::launch::async, [&] {
    std::lock_guard<SpinThenParkMutex> guard(m);
    acquired.store(true);
  });
  // The waiter spins out its budget, then parks; only unlock can wake it.
  // parks() counts just before the sleep, so give the waiter time to be
  // asleep for real: an unlock that forgets to notify must be caught.
  ASSERT_TRUE(eventually([&] { return m.parks() >= 1; }))
      << "the waiter never parked";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  m.unlock();
  expect_finishes(waiter, "the parked waiter");
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(m.try_lock());  // the waiter released it again
  m.unlock();
}

TEST(SpinThenParkMutex, TryLockTakesOnlyAFreeLock) {
  SpinThenParkMutex m;
  ASSERT_TRUE(m.try_lock());
  EXPECT_FALSE(m.try_lock());  // not recursive
  auto other = std::async(std::launch::async, [&] { return m.try_lock(); });
  expect_finishes(other, "try_lock from another thread");
  EXPECT_FALSE(other.get());  // held elsewhere: fails at once, never waits
  m.unlock();
  auto again = std::async(std::launch::async, [&] {
    const bool got = m.try_lock();
    if (got) m.unlock();
    return got;
  });
  expect_finishes(again, "try_lock after unlock");
  EXPECT_TRUE(again.get());
  EXPECT_EQ(m.parks(), 0u);  // try_lock never sleeps
}

TEST(SpinThenParkMutex, ParksCountOnlySleeps) {
  SpinThenParkMutex m;
  for (int i = 0; i < 1000; ++i) {
    std::lock_guard<SpinThenParkMutex> guard(m);
  }
  EXPECT_EQ(m.parks(), 0u);  // uncontended: the fast path never parks

  // Two waiters queue behind a held lock; each parks once, and each unlock
  // hands the lock to one of them.
  m.lock();
  std::vector<std::future<void>> waiters;
  for (int t = 0; t < 2; ++t) {
    waiters.push_back(std::async(std::launch::async, [&m] {
      std::lock_guard<SpinThenParkMutex> guard(m);
    }));
  }
  ASSERT_TRUE(eventually([&] { return m.parks() >= 2; }))
      << "the waiters never parked";
  m.unlock();
  for (auto& w : waiters) expect_finishes(w, "a parked waiter");
  // A woken waiter can lose the lock to the other one and park again, so
  // two sleeps is the floor; nothing else locks, so it cannot run away.
  EXPECT_GE(m.parks(), 2u);
  EXPECT_LE(m.parks(), 3u);
}

}  // namespace
}  // namespace ulc
