// Tests for SortSession: dynamic spawn/reap of sort workers (the paper's
// OS scenario), completion guarantees when every worker is reaped, and
// idempotent wait semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/session.h"

namespace {

using wfsort::Options;
using wfsort::Rng;

std::vector<std::uint64_t> random_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next();
  return v;
}

void expect_sorted_permutation(std::vector<std::uint64_t> original,
                               const std::vector<std::uint64_t>& result) {
  std::sort(original.begin(), original.end());
  EXPECT_EQ(original, result);
}

TEST(SortSession, BasicSpawnAndWait) {
  auto v = random_data(20000, 1);
  auto orig = v;
  {
    wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(v),
                                               Options{.threads = 4});
    session.spawn_worker();
    session.spawn_worker();
    session.wait();
    EXPECT_TRUE(session.finished());
  }
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, WaitWithoutAnyWorkersSortsOnCallerThread) {
  auto v = random_data(5000, 2);
  auto orig = v;
  wfsort::SortSession<std::uint64_t> session{std::span<std::uint64_t>(v)};
  session.wait();
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, ReapAllWorkersImmediatelyStillCompletes) {
  auto v = random_data(30000, 3);
  auto orig = v;
  wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(v),
                                             Options{.threads = 4});
  for (int i = 0; i < 4; ++i) {
    const auto tid = session.spawn_worker();
    session.reap_worker(tid);  // "processor needed elsewhere" right away
  }
  session.wait();  // caller finishes whatever is left
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, SpawnReapSpawnChurn) {
  auto v = random_data(50000, 4);
  auto orig = v;
  wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(v),
                                             Options{.threads = 4});
  std::vector<std::uint32_t> live;
  for (int wave = 0; wave < 5; ++wave) {
    live.push_back(session.spawn_worker());
    live.push_back(session.spawn_worker());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    session.reap_worker(live[static_cast<std::size_t>(wave)]);
  }
  session.wait();
  expect_sorted_permutation(orig, v);
  EXPECT_GE(session.stats().completed_workers, 1u);
}

TEST(SortSession, DestructorWaits) {
  auto v = random_data(10000, 5);
  auto orig = v;
  {
    wfsort::SortSession<std::uint64_t> session{std::span<std::uint64_t>(v)};
    session.spawn_worker();
    // no wait(): the destructor must block until the result is delivered
  }
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, WaitIsIdempotent) {
  auto v = random_data(2000, 6);
  auto orig = v;
  wfsort::SortSession<std::uint64_t> session{std::span<std::uint64_t>(v)};
  session.spawn_worker();
  session.wait();
  session.wait();
  session.wait();
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, LowContentionVariantUnderChurn) {
  auto v = random_data(4000, 7);
  auto orig = v;
  wfsort::SortSession<std::uint64_t> session(
      std::span<std::uint64_t>(v),
      Options{.threads = 4, .variant = wfsort::Variant::kLowContention});
  const auto a = session.spawn_worker();
  session.spawn_worker();
  session.reap_worker(a);
  session.spawn_worker();
  session.wait();
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, ReapAllMidFlightThenWaitCallerFinishes) {
  // Workers get real work done before every one of them is reaped; wait()
  // must finish the remainder on the calling thread and deliver a complete
  // result regardless of how much the reaped workers left behind.
  auto v = random_data(200000, 10);
  auto orig = v;
  wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(v),
                                             Options{.threads = 4});
  std::vector<std::uint32_t> tids;
  for (int i = 0; i < 4; ++i) tids.push_back(session.spawn_worker());
  std::this_thread::sleep_for(std::chrono::microseconds(300));
  for (const auto tid : tids) session.reap_worker(tid);
  session.wait();
  EXPECT_TRUE(session.finished());
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, ReapEveryAllowedWorkerThenWaitFinishesOnCaller) {
  // Spawning the cap's worth of workers must still leave wait() an id of
  // its own to finish the sort with once every one of them is reaped.
  auto v = random_data(std::size_t{1} << 18, 13);
  auto orig = v;
  using Session = wfsort::SortSession<std::uint64_t>;
  Session session(std::span<std::uint64_t>(v), Options{.threads = 4});
  for (std::uint32_t i = 0; i < Session::kMaxWorkers; ++i) {
    session.reap_worker(session.spawn_worker());
  }
  session.wait();
  EXPECT_TRUE(session.finished());
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, WorkerIdsStayMonotoneAcrossReaps) {
  // Ids are never reused: a reaped worker's slot (its fault-plan entry and
  // WAT spread position) stays retired, so later spawns must keep counting
  // upward.
  auto v = random_data(50000, 11);
  auto orig = v;
  wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(v),
                                             Options{.threads = 4});
  std::vector<std::uint32_t> ids;
  for (int round = 0; round < 6; ++round) {
    const auto tid = session.spawn_worker();
    if (!ids.empty()) {
      EXPECT_GT(tid, ids.back());
    }
    ids.push_back(tid);
    if (round % 2 == 0) session.reap_worker(tid);
  }
  session.wait();
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, DestructorWhileWorkersStillRunning) {
  // Destroying the session mid-sort — workers actively in their phases,
  // one already reaped — must join everyone and deliver the result.
  auto v = random_data(300000, 12);
  auto orig = v;
  {
    wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(v),
                                               Options{.threads = 4});
    session.spawn_worker();
    const auto b = session.spawn_worker();
    session.spawn_worker();
    session.reap_worker(b);
    // no wait(): the destructor races the workers' progress
  }
  expect_sorted_permutation(orig, v);
}

// stats() and telemetry() read what wait() writes (the Report snapshot and
// the lazily measured depth); both take the session lock, so polling them
// from another thread while wait() runs is race-free (TSan covers this suite).
TEST(SortSession, StatsPolledConcurrentlyWithWait) {
  auto v = random_data(20000, 10);
  auto orig = v;
  wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(v),
                                             Options{.threads = 2});
  session.spawn_worker();
  session.spawn_worker();
  std::atomic<bool> polling{false};
  std::atomic<bool> waited{false};
  std::jthread poller([&] {
    while (!waited.load(std::memory_order_acquire)) {
      const wfsort::SortStats s = session.stats();
      EXPECT_EQ(s.n, 20000u);
      if (s.telemetry != nullptr) {
        EXPECT_EQ(s.cas_successes, 20000u - 1);
      }
      (void)session.telemetry();
      polling.store(true, std::memory_order_release);
    }
  });
  while (!polling.load(std::memory_order_acquire)) std::this_thread::yield();
  session.wait();
  waited.store(true, std::memory_order_release);
  poller.join();
  const wfsort::SortStats s = session.stats();
  ASSERT_NE(s.telemetry, nullptr);
  EXPECT_EQ(s.telemetry, session.telemetry());
  EXPECT_EQ(s.cas_successes, 20000u - 1);
  expect_sorted_permutation(orig, v);
}

TEST(SortSession, TwoConcurrentSessionsAreIndependent) {
  auto a = random_data(20000, 8);
  auto b = random_data(15000, 9);
  auto ea = a;
  auto eb = b;
  std::sort(ea.begin(), ea.end());
  std::sort(eb.begin(), eb.end());
  {
    wfsort::SortSession<std::uint64_t> sa{std::span<std::uint64_t>(a)};
    wfsort::SortSession<std::uint64_t> sb{std::span<std::uint64_t>(b)};
    sa.spawn_worker();
    sb.spawn_worker();
    sa.spawn_worker();
    sb.spawn_worker();
    sa.wait();
    sb.wait();
  }
  EXPECT_EQ(a, ea);
  EXPECT_EQ(b, eb);
}

}  // namespace
