// Flight-recorder ring and latency sketch tests.
//
// RingTorture is the seqlock contract check: one writer pushing derivable
// events flat out, racing readers snapshotting concurrently.  Readers must
// never observe a torn event (payload fields are functions of the sequence
// number, so any mix of two events is detectable) and the writer must run to
// completion without ever waiting on a reader.  The TSan CI job re-runs this
// suite — the ring's relaxed word stores are the exact code a racy
// implementation would trip over.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/ring.h"
#include "telemetry/sketch.h"

namespace tel = wfsort::telemetry;

namespace {

// The i-th torture event: every field derivable from t, so a reader can
// verify that the 3 words it copied belong to ONE push.
tel::FlightEvent derived_event(std::uint64_t i) {
  tel::FlightEvent e{};
  e.t = i;
  e.value = i * 0x9e3779b97f4a7c15ULL + 1;
  e.a32 = static_cast<std::uint32_t>(i * 2654435761ULL);
  e.tid = static_cast<std::uint16_t>(i);
  e.kind = static_cast<std::uint8_t>(i % 7);
  e.a8 = static_cast<std::uint8_t>(i % 251);
  return e;
}

bool event_consistent(const tel::FlightEvent& e) {
  const tel::FlightEvent want = derived_event(e.t);
  return e.value == want.value && e.a32 == want.a32 && e.tid == want.tid &&
         e.kind == want.kind && e.a8 == want.a8;
}

TEST(RingTorture, ConcurrentReadersSeeNoTornEvents) {
  tel::FlightRing ring(64);
  constexpr std::uint64_t kPushes = 200000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> verified{0};
  std::atomic<bool> torn{false};

  std::vector<std::jthread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t cursor = 0;
      std::uint64_t last_t = 0;
      bool have_last = false;
      while (!done.load(std::memory_order_acquire) ||
             cursor < ring.total()) {
        const auto res = ring.read_from(cursor);
        for (const tel::FlightEvent& e : res.events) {
          if (!event_consistent(e)) {
            torn.store(true, std::memory_order_relaxed);
            return;
          }
          // Within one reader's stream, sequence numbers only move forward.
          if (have_last && e.t <= last_t) {
            torn.store(true, std::memory_order_relaxed);
            return;
          }
          last_t = e.t;
          have_last = true;
          verified.fetch_add(1, std::memory_order_relaxed);
        }
        cursor = res.next;
      }
    });
  }

  // The writer: pushes flat out and must finish regardless of the readers —
  // that it returns at all is the wait-freedom half of the contract.
  for (std::uint64_t i = 0; i < kPushes; ++i) ring.push(derived_event(i));
  done.store(true, std::memory_order_release);
  readers.clear();  // join

  EXPECT_FALSE(torn.load());
  EXPECT_EQ(ring.total(), kPushes);
  EXPECT_GT(verified.load(), 0u);
}

TEST(RingTorture, SnapshotUnderWriteIsAlwaysConsistent) {
  tel::FlightRing ring(8);  // tiny ring maximizes slot reuse races
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::jthread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const tel::FlightEvent& e : ring.snapshot()) {
        if (!event_consistent(e)) {
          torn.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  for (std::uint64_t i = 0; i < 150000; ++i) ring.push(derived_event(i));
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(torn.load());
}

TEST(Ring, KeepsExactLogicalWindow) {
  tel::FlightRing ring(3);  // padded to 4 slots internally; window stays 3
  for (std::uint64_t i = 0; i < 5; ++i) ring.push(derived_event(i));
  const std::vector<tel::FlightEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].t, 2u);  // oldest first
  EXPECT_EQ(events[1].t, 3u);
  EXPECT_EQ(events[2].t, 4u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
}

TEST(Ring, CapacityZeroCountsButRecordsNothing) {
  tel::FlightRing ring(0);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(derived_event(i));
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(Ring, ReadFromReportsDroppedAndResumes) {
  tel::FlightRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(derived_event(i));
  const auto res = ring.read_from(0);
  EXPECT_EQ(res.dropped, 6u);  // events 0..5 were overwritten
  ASSERT_EQ(res.events.size(), 4u);
  EXPECT_EQ(res.events.front().t, 6u);
  EXPECT_EQ(res.next, 10u);
  // Incremental resume: nothing new yet, then exactly the next event.
  EXPECT_TRUE(ring.read_from(res.next).events.empty());
  ring.push(derived_event(10));
  const auto res2 = ring.read_from(res.next);
  EXPECT_EQ(res2.dropped, 0u);
  ASSERT_EQ(res2.events.size(), 1u);
  EXPECT_EQ(res2.events.front().t, 10u);
}

// --- latency sketch ---

TEST(Sketch, QuantilesWithinDocumentedError) {
  tel::LatencySketch sk;
  constexpr std::uint64_t kN = 200000;
  for (std::uint64_t v = 1; v <= kN; ++v) sk.add(v);
  EXPECT_EQ(sk.count(), kN);
  const double tol = tel::LatencySketch::kRelativeError;
  const auto close_to = [tol](std::uint64_t got, double want) {
    return static_cast<double>(got) >= want * (1.0 - tol) &&
           static_cast<double>(got) <= want * (1.0 + tol) + 1.0;
  };
  EXPECT_TRUE(close_to(sk.quantile(0.5), 0.5 * kN))
      << "p50=" << sk.quantile(0.5);
  EXPECT_TRUE(close_to(sk.quantile(0.99), 0.99 * kN))
      << "p99=" << sk.quantile(0.99);
  EXPECT_TRUE(close_to(sk.quantile(0.999), 0.999 * kN))
      << "p999=" << sk.quantile(0.999);
  EXPECT_EQ(sk.max(), kN);
}

TEST(Sketch, MergeMatchesCombinedStream) {
  tel::LatencySketch a, b, both;
  // Two disjoint deterministic streams (an LCG; no wall-clock, no libc rand).
  std::uint64_t x = 12345;
  for (int i = 0; i < 50000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t v = (x >> 33) + 1;
    ((i % 2 == 0) ? a : b).add(v);
    both.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.quantile(0.5), both.quantile(0.5));
  EXPECT_EQ(a.quantile(0.99), both.quantile(0.99));
}

TEST(Sketch, EmptyAndZeroHandling) {
  tel::LatencySketch sk;
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_EQ(sk.quantile(0.5), 0u);
  sk.add(0);
  EXPECT_EQ(sk.count(), 1u);
  EXPECT_EQ(sk.quantile(0.5), 0u);
}

}  // namespace
